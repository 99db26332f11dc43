package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// submitBody encodes the binary submission format.
func submitBody(fs []float32, n, featDim int) []byte {
	buf := make([]byte, 8+4*len(fs))
	binary.LittleEndian.PutUint32(buf, uint32(n))
	binary.LittleEndian.PutUint32(buf[4:], uint32(featDim))
	for i, v := range fs {
		binary.LittleEndian.PutUint32(buf[8+4*i:], math.Float32bits(v))
	}
	return buf
}

func doReq(t *testing.T, h http.Handler, method, target, client string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	if client != "" {
		r.Header.Set("X-Client", client)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestHTTPSubmitPredict walks the whole HTTP surface: submit with rep and
// predictions, predict by key, the 404 resubmit contract, metrics, and
// healthz.
func TestHTTPSubmitPredict(t *testing.T) {
	s := newTestService(t, 3, nil)
	f := s.Model()
	h := s.Handler()
	tr := NewTraffic(LoadConfig{Seed: 13, Programs: 2, MinInstrs: 4, MaxInstrs: 20, Requests: 2, Clients: 1}, f.Cfg.FeatDim)
	fs, n := tr.feats[0], tr.instrs[0]

	w := doReq(t, h, "POST", "/v1/submit?rep=1&uarch=0,2", "c1", submitBody(fs, n, f.Cfg.FeatDim))
	if w.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	var resp submitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rep) != f.Cfg.RepDim || len(resp.Ns) != 2 {
		t.Fatalf("submit response shape: rep %d, ns %d", len(resp.Rep), len(resp.Ns))
	}
	rep := f.ProgramRep(progData(fs, n, f.Cfg.FeatDim))
	for j := range rep {
		if resp.Rep[j] != rep[j] {
			t.Fatal("HTTP rep differs from the single-program reference")
		}
	}
	if want := f.PredictTotalNs(rep, s.table.Rep(2)); resp.Ns[1] != want {
		t.Fatalf("inline prediction %v != reference %v", resp.Ns[1], want)
	}

	w = doReq(t, h, "GET", "/v1/predict?key="+resp.Key+"&uarch=1", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", w.Code, w.Body.String())
	}
	var pr predictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if want := f.PredictTotalNs(rep, s.table.Rep(1)); pr.Ns != want {
		t.Fatalf("predict %v != reference %v", pr.Ns, want)
	}

	if w = doReq(t, h, "GET", "/v1/predict?key=ffff&uarch=0", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown key: %d, want 404", w.Code)
	}
	if w = doReq(t, h, "GET", "/v1/predict?key="+resp.Key+"&uarch=9", "", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad uarch: %d, want 400", w.Code)
	}

	for _, bad := range [][]byte{
		nil,
		submitBody(fs, n, f.Cfg.FeatDim)[:7], // truncated header
		submitBody(fs, n, f.Cfg.FeatDim+1),   // wrong featDim
		submitBody(fs, n+1, f.Cfg.FeatDim),   // length mismatch
		submitBody(nil, 0, f.Cfg.FeatDim),    // n = 0
	} {
		if w = doReq(t, h, "POST", "/v1/submit", "c1", bad); w.Code != http.StatusBadRequest {
			t.Fatalf("malformed body accepted: %d", w.Code)
		}
	}

	w = doReq(t, h, "GET", "/metrics", "", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "perfvec_serve_submits_total") {
		t.Fatalf("metrics: %d %q", w.Code, w.Body.String())
	}
	if w = doReq(t, h, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
}

// TestHTTPRateLimit checks the 429 mapping and Retry-After header.
func TestHTTPRateLimit(t *testing.T) {
	clk := &testClock{t: time.Unix(0, 0)}
	s := newTestService(t, 1, func(c *Config) { c.Rate = 0.5; c.Burst = 1; c.Clock = clk.now })
	f := s.Model()
	h := s.Handler()
	tr := NewTraffic(LoadConfig{Seed: 14, Programs: 1, MinInstrs: 4, MaxInstrs: 4, Requests: 1, Clients: 1}, f.Cfg.FeatDim)
	body := submitBody(tr.feats[0], tr.instrs[0], f.Cfg.FeatDim)

	if w := doReq(t, h, "POST", "/v1/submit", "carol", body); w.Code != http.StatusOK {
		t.Fatalf("first submit: %d", w.Code)
	}
	w := doReq(t, h, "POST", "/v1/submit", "carol", body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("drained bucket: %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") != "2" { // 1 token at 0.5/s = 2s
		t.Fatalf("Retry-After = %q, want \"2\"", w.Header().Get("Retry-After"))
	}
}

// TestHTTPSubmitRejectsNonFinite checks that a NaN or ±Inf feature is a 400
// naming the offending index, and that nothing is encoded or cached for it.
func TestHTTPSubmitRejectsNonFinite(t *testing.T) {
	s := newTestService(t, 3, nil)
	f := s.Model()
	h := s.Handler()
	tr := NewTraffic(LoadConfig{Seed: 15, Programs: 1, MinInstrs: 3, MaxInstrs: 3, Requests: 1, Clients: 1}, f.Cfg.FeatDim)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		fs := append([]float32(nil), tr.feats[0]...)
		fs[f.Cfg.FeatDim+2] = float32(v)
		w := doReq(t, h, "POST", "/v1/submit?rep=1", "c1", submitBody(fs, tr.instrs[0], f.Cfg.FeatDim))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("feature %v: %d %q, want 400", v, w.Code, w.Body.String())
		}
		var er errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "feature "+strconv.Itoa(f.Cfg.FeatDim+2)+" ") {
			t.Fatalf("feature %v: error body %q does not name index %d", v, w.Body.String(), f.Cfg.FeatDim+2)
		}
		w = doReq(t, h, "POST", "/v1/sweep?size=4", "c1", submitBody(fs, tr.instrs[0], f.Cfg.FeatDim))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "not finite") {
			t.Fatalf("sweep with feature %v: %d %q, want a 400 naming the feature", v, w.Code, w.Body.String())
		}
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("rejected submissions left %d cache entries", n)
	}
}

// TestWriteJSONEncodeFailure checks that a response value JSON cannot
// encode answers 500 with an error body, not the intended status with an
// empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, submitResponse{Key: "1", Rep: []float32{float32(math.NaN())}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("body %q is not an error response", w.Body.String())
	}
	w = httptest.NewRecorder()
	writeJSON(w, http.StatusCreated, errorResponse{Error: "x"})
	if w.Code != http.StatusCreated || w.Body.String() != "{\"error\":\"x\"}\n" {
		t.Fatalf("encodable value: %d %q", w.Code, w.Body.String())
	}
}
