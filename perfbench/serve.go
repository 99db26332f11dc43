package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/perfvec"
	"repro/internal/serve"
	"repro/internal/uarch"
)

// serve-mixed: perfvec-serve under seeded traffic, driven in-process through
// Service.Handler().ServeHTTP so that the HTTP decode and JSON layer is
// measured without a network. Never-seen submits (cache writes, batched
// encodes) share the run with hot-set submits (cache hits), cached predicts
// and key sweeps, so a change that speeds reads by slowing writes shows.
// An open loop at a fixed offered rate, timed from each request's due time,
// alternates with a closed loop with a fixed number of outstanding
// requests, which measures capacity.

const (
	// closedOutstanding is the closed loop's number of requests in flight.
	closedOutstanding = 16
	// openShare is the share of the measured time given to the open loop.
	openShare = 0.7
	// serveCycles is how many open-then-closed segments a run alternates;
	// closed-loop figures are medians over the segments.
	serveCycles = 5
	// sampleChecks is how many responses are checked against the
	// reference reps and predictions.
	sampleChecks = 200
	// sweepTop is the ?top= of every sweep request.
	sweepTop = 16
	// missLimit is the latency limit the miss p99 is held to; a non-2xx
	// answer counts as missing it. When more than 1% of the misses miss it,
	// every miss that did counts as a failure.
	missLimit = 100 * time.Millisecond
)

type serveState struct {
	seed    uint64
	progs   servePrograms
	f       *perfvec.Foundation
	table   *perfvec.Table
	um      *perfvec.UarchModel
	svc     *serve.Service
	h       http.Handler
	hotKeys []string
	uarchQ  string // ?uarch= naming every table microarchitecture
	stamp   atomic.Uint32
}

func setupServe(seed uint64) (workload, error) {
	cfg := perfvec.DefaultConfig()
	s := &serveState{seed: seed, progs: newServePrograms(seed, cfg.FeatDim)}
	s.f = perfvec.NewFoundation(cfg)
	s.table = perfvec.NewTable(tableUarchs, cfg.RepDim, 0)
	s.um = perfvec.NewUarchModel(cfg.RepDim, 32, 0)
	s.um.Calibrate(uarch.GenerateSpace(uarch.SpaceSpec{Size: 512, Seed: 1}))
	// perfvec-serve's defaults, spelled out.
	svc, err := serve.NewService(serve.Config{
		Model: s.f, Table: s.table, Uarch: s.um,
		CacheSize:   4096,
		BatchWindow: 200 * time.Microsecond, MaxBatchRows: 1024,
		QueueDepth: 256, EncodeWorkers: 2,
		Precision:       serve.PrecisionF32,
		MaxSweepConfigs: 8192,
	})
	if err != nil {
		return nil, err
	}
	s.svc, s.h = svc, svc.Handler()
	var us []string
	for j := 0; j < tableUarchs; j++ {
		us = append(us, strconv.Itoa(j))
	}
	s.uarchQ = strings.Join(us, ",")

	// Warm-up: cache the hot set, embed the sweep space, and run a few
	// misses through the batcher (their stamps lie outside the run's range).
	for _, p := range s.progs.Hot {
		code, body := s.call("POST", "/v1/submit", encodeProgram(p, cfg.FeatDim))
		if code != http.StatusOK {
			return nil, fmt.Errorf("warm-up submit: %d %s", code, body)
		}
		var resp struct{ Key string }
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		s.hotKeys = append(s.hotKeys, resp.Key)
	}
	if code, body := s.call("POST", s.sweepURL(0), nil); code != http.StatusOK {
		return nil, fmt.Errorf("warm-up sweep: %d %s", code, body)
	}
	for i := range 32 {
		body := encodeProgram(s.progs.Bases[i], cfg.FeatDim)
		binary.LittleEndian.PutUint32(body[8:], math.Float32bits(-1)+uint32(i))
		if code, b := s.call("POST", "/v1/submit", body); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up miss: %d %s", code, b)
		}
	}
	return s, nil
}

func (s *serveState) close() { s.svc.Close() }

// encodeProgram is the /v1/submit binary body: uint32 n, uint32 featDim,
// then the features as little-endian float32s.
func encodeProgram(feats []float32, featDim int) []byte {
	b := make([]byte, 8+4*len(feats))
	binary.LittleEndian.PutUint32(b, uint32(len(feats)/featDim))
	binary.LittleEndian.PutUint32(b[4:], uint32(featDim))
	for i, v := range feats {
		binary.LittleEndian.PutUint32(b[8+4*i:], math.Float32bits(v))
	}
	return b
}

// missFeatures is the never-seen program a miss with this stamp submits:
// its base with the first feature replaced by a value unique to the stamp.
func missFeatures(base []float32, stamp uint32) []float32 {
	fs := append([]float32(nil), base...)
	fs[0] = math.Float32frombits(math.Float32bits(1) + stamp)
	return fs
}

func (s *serveState) sweepURL(hot int) string {
	return fmt.Sprintf("/v1/sweep?key=%s&size=%d&seed=%d&top=%d", s.hotKeys[hot], s.progs.Space.Size, s.progs.Space.Seed, sweepTop)
}

// call serves one request in-process.
func (s *serveState) call(method, url string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// outcome is what one request did.
type outcome struct {
	kind  int
	code  int
	rows  int    // instruction rows submitted (submits only)
	stamp uint32 // miss stamp
	body  []byte // kept for sampled requests
}

// do issues q; keep asks for the response body (and, on submits, the rep).
func (s *serveState) do(q request, keep bool, tr *Tracer, req int64) outcome {
	o := outcome{kind: q.Kind}
	var method, url string
	var body []byte
	span := "serve.http.submit"
	switch q.Kind {
	case kindMiss, kindHit:
		var feats []float32
		if q.Kind == kindMiss {
			o.stamp = s.stamp.Add(1) - 1
			feats = missFeatures(s.progs.Bases[q.Prog], o.stamp)
		} else {
			feats = s.progs.Hot[q.Prog]
		}
		o.rows = len(feats) / s.f.Cfg.FeatDim
		method, url, body = "POST", "/v1/submit?uarch="+s.uarchQ, encodeProgram(feats, s.f.Cfg.FeatDim)
		if keep {
			url += "&rep=1"
		}
	case kindPredict:
		method, url, span = "GET", fmt.Sprintf("/v1/predict?key=%s&uarch=%d", s.hotKeys[q.Prog], q.Uarch), "serve.http.predict"
	case kindSweep:
		method, url, span = "POST", s.sweepURL(q.Prog), "serve.http.sweep"
	}
	sp := tr.Begin(span, -1, req)
	code, resp := s.call(method, url, body)
	tr.End(sp)
	if code/100 != 2 {
		tr.Add(span+".non2xx", 1)
	}
	o.code = code
	if keep {
		o.body = resp
	}
	return o
}

// openLoop dispatches len(due) requests at their due times and returns how
// late the generator was for each. now reads the phase clock and sleep
// waits; both are parameters so that the accounting can be tested on a
// synthetic clock. A stall delays every request due during it, and each is
// charged the lateness it suffered, since latency is timed from the due
// time rather than the send time.
func openLoop(due []time.Duration, now func() time.Duration, sleep func(time.Duration), dispatch func(i int)) []time.Duration {
	late := make([]time.Duration, len(due))
	for i, d := range due {
		t := now()
		if d > t {
			sleep(d - t)
			t = now()
		}
		late[i] = max(t-d, 0)
		dispatch(i)
	}
	return late
}

func (s *serveState) run(budget time.Duration, tr *Tracer, r *Result) error {
	openDur := time.Duration(float64(budget) * openShare)
	sched := newServeSchedule(s.seed, openDur, 4096, len(s.progs.Bases), len(s.progs.Hot), tableUarchs)
	open := sched.Open

	// The checked sample: every len/sampleChecks-th open-loop request.
	keep := make([]bool, len(open))
	for i := 0; i < len(open); i += max(len(open)/sampleChecks, 1) {
		keep[i] = true
	}
	m := s.svc.Metrics()
	before := snapshot(m)

	// The open loop and the closed loop alternate in serveCycles segments,
	// so that both phases sample the same host conditions; the open-loop
	// schedule is one continuous schedule cut at segment boundaries.
	due := make([]time.Duration, len(open))
	for i, q := range open {
		due[i] = q.Due
	}
	outs := make([]outcome, len(open))
	latMs := make([]float64, len(open))
	late := make([]time.Duration, 0, len(open))
	var inflight, backlogMax atomic.Int64
	var next, closedFailed atomic.Int64
	var satRate, rowsRate, encRate []float64 // closed loop, per segment
	var openWall time.Duration
	var wg sync.WaitGroup
	var segEnd []int // open-loop requests of each segment end here
	segOpen := openDur / serveCycles
	closedDur := (budget - openDur) / serveCycles
	lo := 0
	for c := range serveCycles {
		hi := lo
		for hi < len(open) && (c == serveCycles-1 || due[hi] < time.Duration(c+1)*segOpen) {
			hi++
		}
		runtime.GC() // the previous segment's garbage is not collected in this one's time
		r.roundStart()
		start := time.Now()
		offset := time.Duration(c) * segOpen
		since := func() time.Duration { return time.Since(start) + offset }
		late = append(late, openLoop(due[lo:hi], since, time.Sleep, func(k int) {
			i := lo + k
			n := inflight.Add(1)
			for {
				b := backlogMax.Load()
				if n <= b || backlogMax.CompareAndSwap(b, n) {
					break
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i] = s.do(open[i], keep[i], tr, int64(i)+1)
				latMs[i] = float64(since()-due[i]) / 1e6
				inflight.Add(-1)
			}()
		})...)
		wg.Wait()
		openWall += time.Since(start)
		r.roundEnd()
		lo = hi
		segEnd = append(segEnd, hi)

		runtime.GC()
		r.roundStart()
		var done, doneRows atomic.Int64
		rowsBefore := m.BatchedRows.Load()
		deadline := time.Now().Add(closedDur)
		for range closedOutstanding {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := next.Add(1) - 1
					o := s.do(sched.Closed[int(i)%len(sched.Closed)], false, tr, int64(len(open))+i+1)
					if o.code/100 != 2 {
						closedFailed.Add(1)
					}
					if time.Now().Before(deadline) {
						done.Add(1)
						doneRows.Add(int64(o.rows))
					}
				}
			}()
		}
		wg.Wait()
		secs := closedDur.Seconds()
		satRate = append(satRate, float64(done.Load())/secs)
		rowsRate = append(rowsRate, float64(doneRows.Load())/secs)
		encRate = append(encRate, float64(m.BatchedRows.Load()-rowsBefore)/secs)
		r.roundEnd()
	}
	r.timedEnd()
	after := snapshot(m)

	// Latencies by kind; a non-2xx answer is a failure and misses the limit.
	var byKind [numKinds][]float64
	failed, overLimit := 0, 0
	for i, o := range outs {
		byKind[o.kind] = append(byKind[o.kind], latMs[i])
		if o.code/100 != 2 {
			failed++
		}
		if o.kind == kindMiss && (o.code/100 != 2 || latMs[i] > float64(missLimit)/1e6) {
			overLimit++
		}
	}
	r.Attempted = len(open) + int(next.Load())
	non2xx := failed + int(closedFailed.Load())
	r.check("every response 2xx", non2xx, "%d non-2xx of %d", non2xx, r.Attempted)
	missP99, err := tailPercentile(append([]float64(nil), byKind[kindMiss]...), 99, minBeyond)
	r.check("miss p99 sample size", fails(err == nil), "%v", errOrOK(err))
	misses := len(byKind[kindMiss])
	r.check("miss p99 within limit", limitFailures(overLimit, misses), "p99 %.4g ms; %d of %d misses over %v or non-2xx",
		missP99, overLimit, misses, missLimit)
	lateMs := make([]float64, len(late))
	for i, l := range late {
		lateMs[i] = float64(l) / 1e6
	}
	// A kind's p50 is the median over segments of the segment's p50, so a
	// slow spell of the host in one segment moves it little.
	p50 := func(k int) float64 {
		var seg []float64
		lo := 0
		for _, hi := range segEnd {
			var xs []float64
			for i := lo; i < hi; i++ {
				if outs[i].kind == k {
					xs = append(xs, latMs[i])
				}
			}
			seg = append(seg, percentile(xs, 50))
			lo = hi
		}
		return median(seg)
	}
	r.Metrics["insts_per_s"] = median(rowsRate)
	r.Metrics["model_insts_per_s"] = median(encRate)
	r.Metrics["op_p50_ms"] = p50(kindMiss)
	r.figure("serve_hit_p50_ms", "ms", p50(kindHit))
	r.figure("serve_miss_p50_ms", "ms", p50(kindMiss))
	r.figure("serve_miss_p99_ms", "ms", missP99)
	r.figure("serve_predict_p50_ms", "ms", p50(kindPredict))
	r.figure("serve_sweep_p50_ms", "ms", p50(kindSweep))
	r.figure("serve_sat_rps", "1/s", median(satRate))
	r.figure("serve_open_rps", "1/s", float64(len(open))/openWall.Seconds())
	r.figure("serve_misses", "count", float64(len(byKind[kindMiss])))
	r.figure("serve_miss_over_limit", "count", float64(overLimit))
	r.figure("serve_gen_late_p99_ms", "ms", percentile(append([]float64(nil), lateMs...), 99))
	r.figure("serve_backlog_max", "count", float64(backlogMax.Load()))

	s.checks(open, outs, r)
	if tr != nil {
		for _, ep := range []string{"submit", "predict", "sweep"} {
			name := "serve.http." + ep
			r.Layer[name+".count"] = float64(tr.Count(name))
			r.Layer[name+".busy_s"] = tr.Busy(name).Seconds()
			r.Layer[name+".non2xx"] = tr.Counter(name + ".non2xx")
		}
		d := func(i int) float64 { return float64(after[i] - before[i]) }
		r.Layer["serve.cache.hit_ratio"] = d(mHits) / d(mSubmits)
		r.Layer["serve.batcher.batches"] = d(mBatches)
		r.Layer["serve.batcher.rows_per_batch"] = d(mRows) / d(mBatches)
		r.Layer["serve.batcher.coalesced"] = d(mCoalesced)
		r.Layer["serve.rejected_queue"] = d(mRejQueue)
		r.Layer["serve.rejected_rate"] = d(mRejRate)
		r.Layer["serve.sweep.configs"] = d(mSweepConfigs)
		for _, f := range r.Figures {
			switch f.Name {
			case "serve_hit_p50_ms", "serve_miss_p50_ms", "serve_miss_p99_ms", "serve_sweep_p50_ms", "serve_sat_rps":
				r.Layer["serve."+strings.TrimPrefix(f.Name, "serve_")] = f.Value
			case "serve_gen_late_p99_ms":
				r.Layer["serve.gen.late_p99_ms"] = f.Value
			case "serve_backlog_max":
				r.Layer["serve.backlog_max"] = f.Value
			}
		}
	}
	return nil
}

// limitFailures is what the miss limit counts against the attempts when
// over of n misses missed it: nothing while the nearest-rank p99 is within
// the limit (at most n - ceil(0.99 n) misses over it), else every miss over.
func limitFailures(over, n int) int {
	if over <= n-int(math.Ceil(0.99*float64(n))) {
		return 0
	}
	return over
}

func errOrOK(err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("at least %d misses beyond p99", minBeyond)
}

// Indices into a metrics snapshot.
const (
	mSubmits = iota
	mHits
	mBatches
	mRows
	mCoalesced
	mRejQueue
	mRejRate
	mSweepConfigs
)

func snapshot(m *serve.Metrics) []uint64 {
	return []uint64{
		m.Submits.Load(), m.CacheHits.Load(), m.Batches.Load(), m.BatchedRows.Load(),
		m.Coalesced.Load(), m.RejectedQueue.Load(), m.RejectedRate.Load(), m.SweepConfigs.Load(),
	}
}

// checks compares the sampled responses with reference reps (the tape
// forward) and predictions, and sweep tops with a full sort.
func (s *serveState) checks(open []request, outs []outcome, r *Result) {
	fd := s.f.Cfg.FeatDim
	repOf := func(feats []float32) []float32 {
		return s.f.ProgramRep(&perfvec.ProgramData{N: len(feats) / fd, FeatDim: fd, Features: feats})
	}
	hotRep := map[int][]float32{}
	hot := func(p int) []float32 {
		if hotRep[p] == nil {
			hotRep[p] = repOf(s.progs.Hot[p])
		}
		return hotRep[p]
	}
	sw := perfvec.NewSweeper(s.f, s.um)
	sw.SetSpace(uarch.GenerateSpace(s.progs.Space))
	full := make([]float64, sw.K())

	checked, bad := 0, 0
	var firstBad string
	for i, o := range outs {
		if o.body == nil {
			continue
		}
		checked++
		q := open[i]
		var err error
		switch q.Kind {
		case kindMiss, kindHit:
			var feats []float32
			if q.Kind == kindMiss {
				feats = missFeatures(s.progs.Bases[q.Prog], o.stamp)
			} else {
				feats = s.progs.Hot[q.Prog]
			}
			err = s.checkSubmit(o.body, feats, repOf(feats))
		case kindPredict:
			var resp struct{ Ns float64 }
			err = json.Unmarshal(o.body, &resp)
			if want := s.f.PredictTotalNs(hot(q.Prog), s.table.Rep(q.Uarch)); err == nil && resp.Ns != want {
				err = fmt.Errorf("ns %v, want %v", resp.Ns, want)
			}
		case kindSweep:
			sw.Sweep(hot(q.Prog), full)
			err = checkTop(o.body, full)
		}
		if err != nil {
			bad++
			if firstBad == "" {
				firstBad = fmt.Sprintf("%s request %d: %v", kindNames[q.Kind], i, err)
			}
		}
	}
	r.check("sampled responses = reference", bad+fails(checked >= sampleChecks), "%d checked, %d wrong %s", checked, bad, firstBad)
}

func (s *serveState) checkSubmit(body []byte, feats, ref []float32) error {
	var resp struct {
		Key string
		Rep []float32
		Ns  []float64
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%v: %s", err, body)
	}
	if want := strconv.FormatUint(serve.HashProgram(feats, s.f.Cfg.FeatDim), 16); resp.Key != want {
		return fmt.Errorf("key %s, want %s", resp.Key, want)
	}
	if !sameBits32(resp.Rep, ref) {
		return fmt.Errorf("rep differs from ProgramRep")
	}
	if len(resp.Ns) != tableUarchs {
		return fmt.Errorf("%d predictions, want %d", len(resp.Ns), tableUarchs)
	}
	for j, v := range resp.Ns {
		if want := s.f.PredictTotalNs(ref, s.table.Rep(j)); v != want {
			return fmt.Errorf("uarch %d: ns %v, want %v", j, v, want)
		}
	}
	return nil
}

// checkTop checks a ?top= sweep response against a full sort of the
// reference sweep, ascending by (value, index).
func checkTop(body []byte, full []float64) error {
	var resp struct {
		N   int
		Top int
		Idx []int
		Ns  []float64
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	order := make([]int, len(full))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if full[order[a]] != full[order[b]] {
			return full[order[a]] < full[order[b]]
		}
		return order[a] < order[b]
	})
	if resp.N != len(full) || resp.Top != sweepTop || len(resp.Idx) != sweepTop || len(resp.Ns) != sweepTop {
		return fmt.Errorf("n %d top %d with %d/%d entries", resp.N, resp.Top, len(resp.Idx), len(resp.Ns))
	}
	for k := range sweepTop {
		if resp.Idx[k] != order[k] || resp.Ns[k] != full[order[k]] {
			return fmt.Errorf("rank %d: candidate %d (%v), want %d (%v)", k, resp.Idx[k], resp.Ns[k], order[k], full[order[k]])
		}
	}
	return nil
}
