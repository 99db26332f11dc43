package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/uarch"
)

// maxBody bounds submission bodies: header plus 64k feature rows of the
// widest feature vector we ship.
const maxBody = 8 + 4*64*1024*64

// submitResponse is the JSON body of POST /v1/submit.
type submitResponse struct {
	Key string    `json:"key"`
	Rep []float32 `json:"rep,omitempty"`
	Ns  []float64 `json:"ns,omitempty"`
}

// predictResponse is the JSON body of GET /v1/predict.
type predictResponse struct {
	Key string  `json:"key"`
	Ns  float64 `json:"ns"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// httpScratch pools the per-request decode buffers the HTTP layer needs
// (the service core itself is allocation-free; the HTTP shell reuses its
// scratch the same way).
type httpScratch struct {
	body  []byte
	feats []float32
	rep   []float32
	ns    []float64
	topIx []int // top-k candidate indices, reused across ?top= sweeps
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/submit            binary feature matrix in, key (+rep/+ns) out
//	POST /v1/sweep             batch DSE sweep: program (or cached key) + space spec in, per-candidate ns out
//	GET  /v1/predict           ?key=<hex>&uarch=<idx>, cache-only predict
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness
func (s *Service) Handler() http.Handler {
	scratch := &sync.Pool{New: func() any {
		return &httpScratch{rep: make([]float32, s.f.Cfg.RepDim)}
	}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, scratch)
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		s.handleSweep(w, r, scratch)
	})
	mux.HandleFunc("GET /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.m.WriteTo(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// clientID identifies the submitter for rate limiting: the X-Client header
// when present, else the remote address.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	return r.RemoteAddr
}

// writeJSON encodes v before it sends the status line, so a value that
// cannot be encoded (a NaN, say) answers 500 with an error body instead of
// the intended status with an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: "encode response: " + err.Error()}) // a string field always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// retryAfterSeconds rounds d up to the whole seconds Retry-After requires,
// never below 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// handleSubmit decodes the binary body (uint32 n, uint32 featDim, then
// n*featDim little-endian float32s), runs Submit, and answers with the key
// plus optional representation (?rep=1) and predictions (?uarch=0,3,...).
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request, scratch *sync.Pool) {
	sc := scratch.Get().(*httpScratch)
	defer scratch.Put(sc)

	body, err := readBody(r, sc.body[:0])
	sc.body = body[:0:cap(body)]
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	n, msg := s.decodeProgram(body, sc)
	if msg != "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
		return
	}
	feats := sc.feats[:n*s.f.Cfg.FeatDim]

	key, err := s.Submit(clientID(r), feats, n, sc.rep)
	switch {
	case errors.Is(err, ErrRateLimited):
		w.Header().Set("Retry-After", retryAfterSeconds(s.RetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	resp := submitResponse{Key: strconv.FormatUint(key, 16)}
	if r.URL.Query().Get("rep") == "1" {
		resp.Rep = sc.rep
	}
	if list := r.URL.Query().Get("uarch"); list != "" {
		for _, tok := range strings.Split(list, ",") {
			j, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || j < 0 || j >= s.Uarchs() {
				writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad uarch index " + strconv.Quote(tok)})
				return
			}
			ns, ok := s.Predict(key, j)
			if !ok {
				// The entry was evicted between Submit and Predict; the rep
				// is still in hand, so predict directly.
				ns = s.f.PredictTotalNs(sc.rep, s.table.Rep(j))
			}
			resp.Ns = append(resp.Ns, ns)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeProgram parses the binary submission body (uint32 n, uint32 featDim,
// then n*featDim little-endian float32s) into sc.feats, returning the row
// count, or a non-empty error message for a 400 response. Every feature
// must be finite: a NaN or ±Inf would be encoded, cached under its key and
// answered with a representation JSON cannot carry.
func (s *Service) decodeProgram(body []byte, sc *httpScratch) (int, string) {
	if len(body) < 8 {
		return 0, "body shorter than the 8-byte header"
	}
	n := int(binary.LittleEndian.Uint32(body))
	fd := int(binary.LittleEndian.Uint32(body[4:]))
	if fd != s.f.Cfg.FeatDim {
		return 0, "feature dim mismatch: body says " + strconv.Itoa(fd) + ", model wants " + strconv.Itoa(s.f.Cfg.FeatDim)
	}
	if n < 1 || len(body) != 8+4*n*fd {
		return 0, "body length does not match n*featDim float32 rows"
	}
	if cap(sc.feats) < n*fd {
		sc.feats = make([]float32, n*fd)
	}
	feats := sc.feats[:n*fd]
	for i := range feats {
		v := math.Float32frombits(binary.LittleEndian.Uint32(body[8+4*i:]))
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return 0, "feature " + strconv.Itoa(i) + " (row " + strconv.Itoa(i/fd) + ", column " + strconv.Itoa(i%fd) + ") is not finite"
		}
		feats[i] = v
	}
	return n, ""
}

// parseSpaceSpec reads the candidate-space spec from the sweep query
// parameters: size (required), seed, and grid=1 for grid-only spaces.
func (s *Service) parseSpaceSpec(q url.Values) (uarch.SpaceSpec, string) {
	size, err := strconv.Atoi(q.Get("size"))
	if err != nil || size < 1 || size > s.cfg.MaxSweepConfigs {
		return uarch.SpaceSpec{}, "size must be an integer in [1, " + strconv.Itoa(s.cfg.MaxSweepConfigs) + "]"
	}
	spec := uarch.SpaceSpec{Size: size, GridOnly: q.Get("grid") == "1"}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return spec, "seed must be an unsigned integer"
		}
		spec.Seed = seed
	}
	return spec, ""
}

// handleSweep answers POST /v1/sweep: the candidate-space spec rides in the
// query (?size=&seed=&grid=), the program either as a binary submission body
// (encoded on a cache miss, exactly like /v1/submit) or — with an empty body
// — as ?key=<hex> referencing an already-cached representation, which costs
// zero encoder passes. The response streams the per-candidate predictions as
// JSON, flushed in bounded chunks so multi-thousand-candidate sweeps never
// build the whole body in memory. ?top=K (1 <= K <= size) selects
// server-side: the response then carries only the K lowest predictions,
// ascending, with an idx array mapping each back to its candidate index.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request, scratch *sync.Pool) {
	sc := scratch.Get().(*httpScratch)
	defer scratch.Put(sc)

	q := r.URL.Query()
	spec, msg := s.parseSpaceSpec(q)
	if msg != "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
		return
	}
	top := 0
	if v := q.Get("top"); v != "" {
		var err error
		top, err = strconv.Atoi(v)
		if err != nil || top < 1 || top > spec.Size {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "top must be an integer in [1, size]"})
			return
		}
	}
	if cap(sc.ns) < spec.Size {
		sc.ns = make([]float64, spec.Size)
	}
	out := sc.ns[:spec.Size]

	body, err := readBody(r, sc.body[:0])
	sc.body = body[:0:cap(body)]
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	var key uint64
	var k int
	if len(body) == 0 {
		key, err = strconv.ParseUint(q.Get("key"), 16, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty body: pass the program as a binary body or ?key=<hex> of a cached submission"})
			return
		}
		k, err = s.SweepCached(key, spec, sc.rep, out)
	} else {
		var n int
		n, msg = s.decodeProgram(body, sc)
		if msg != "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
			return
		}
		key, k, err = s.SweepSubmit(clientID(r), sc.feats[:n*s.f.Cfg.FeatDim], n, spec, sc.rep, out)
	}
	switch {
	case errors.Is(err, ErrNoSweep):
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrNotCached):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "key not cached; resubmit the program"})
		return
	case errors.Is(err, ErrRateLimited):
		w.Header().Set("Retry-After", retryAfterSeconds(s.RetryAfter()))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// Stream {"key":..,"n":..,"ns":[..]} through the pooled body buffer,
	// flushing whenever it tops sweepFlushBytes. With ?top=K the ns array
	// carries only the K best (lowest) predictions, ascending, and an idx
	// array maps each back to its candidate index in the space.
	w.Header().Set("Content-Type", "application/json")
	buf := sc.body[:0]
	buf = append(buf, `{"key":"`...)
	buf = strconv.AppendUint(buf, key, 16)
	buf = append(buf, `","n":`...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	ns := out[:k]
	var idx []int
	if top > 0 {
		if top > k {
			top = k
		}
		if cap(sc.topIx) < top {
			sc.topIx = make([]int, top)
		}
		idx = topKMin(ns, sc.topIx[:top])
		buf = append(buf, `,"top":`...)
		buf = strconv.AppendInt(buf, int64(top), 10)
		buf = append(buf, `,"idx":[`...)
		for i, ci := range idx {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(ci), 10)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"ns":[`...)
	count := len(ns)
	if idx != nil {
		count = len(idx)
	}
	for i := 0; i < count; i++ {
		v := ns[i]
		if idx != nil {
			v = ns[idx[i]]
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		if len(buf) >= sweepFlushBytes {
			if _, err := w.Write(buf); err != nil {
				sc.body = buf[:0:cap(buf)]
				return
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, "]}\n"...)
	w.Write(buf)
	sc.body = buf[:0:cap(buf)]
}

// sweepFlushBytes is the streaming threshold of /v1/sweep responses.
const sweepFlushBytes = 32 << 10

// readBody reads the request body into buf (reused across requests),
// enforcing maxBody.
func readBody(r *http.Request, buf []byte) ([]byte, error) {
	lr := io.LimitReader(r.Body, maxBody+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	if len(buf) > maxBody {
		return buf, errors.New("body exceeds the submission size limit")
	}
	return buf, nil
}

// handlePredict answers GET /v1/predict?key=<hex>&uarch=<idx> from the cache
// alone: 404 means the key is not cached and the program must be resubmitted.
func (s *Service) handlePredict(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key, err := strconv.ParseUint(q.Get("key"), 16, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "key must be the hex key a submit returned"})
		return
	}
	j, err := strconv.Atoi(q.Get("uarch"))
	if err != nil || j < 0 || j >= s.Uarchs() {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "uarch must be an index below " + strconv.Itoa(s.Uarchs())})
		return
	}
	ns, ok := s.Predict(key, j)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "key not cached; resubmit the program"})
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{Key: q.Get("key"), Ns: ns})
}
