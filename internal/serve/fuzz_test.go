package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// FuzzDecodeProgram drives the /v1/submit body decoder with arbitrary bytes.
// It must never panic, and it must either reject the body with a message or
// accept n >= 1 rows of finite floats whose n*featDim values re-encode to
// exactly the body.
// One scratch is shared across inputs, so a short body decoded after a long
// one also checks that stale rows never leak into the result. The seed
// corpus lives in testdata/fuzz/FuzzDecodeProgram.
func FuzzDecodeProgram(f *testing.F) {
	s := newTestService(f, 0, nil)
	fd := s.f.Cfg.FeatDim
	sc := &httpScratch{}
	f.Fuzz(func(t *testing.T, body []byte) {
		n, msg := s.decodeProgram(body, sc)
		if msg != "" {
			if n != 0 {
				t.Fatalf("rejected body %q but returned n=%d", msg, n)
			}
			return
		}
		if n < 1 {
			t.Fatalf("accepted body with n=%d rows", n)
		}
		for i, v := range sc.feats[:n*fd] {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("accepted non-finite feature %d = %v", i, v)
			}
		}
		if got := submitBody(sc.feats[:n*fd], n, fd); !bytes.Equal(got, body) {
			t.Fatalf("accepted %d rows that do not round-trip the %d-byte body", n, len(body))
		}
	})
}

// sweepFuzzKey is the cache key of FuzzSweepQuery's fixed program; the seed
// corpus (testdata/fuzz/FuzzSweepQuery) names it in ?key=.
const sweepFuzzKey = "2b900976d3cdd52"

// FuzzSweepQuery drives POST /v1/sweep through Handler with an arbitrary raw
// query (size, seed, grid, top, key), once with an empty body (the key-only
// path) and once with one fixed valid program body. The handler must never
// panic. Every 2xx must be JSON with n <= size and, without top, one ns per
// candidate; with top, top <= n predictions and as many distinct candidate
// indices in [0, n). Every other status must carry an error message. The
// fixed program is cached before the first input, so a query naming its key
// takes the key-only path to a sweep.
func FuzzSweepQuery(f *testing.F) {
	s := newSweepService(f, func(c *Config) { c.MaxSweepConfigs = 64 })
	h := s.Handler()
	fd := s.f.Cfg.FeatDim
	const n = 12
	feats := make([]float32, n*fd)
	for i := range feats {
		feats[i] = float32(i%17)/8 - 1
	}
	if key, err := s.Submit("fuzz", feats, n, make([]float32, s.f.Cfg.RepDim)); err != nil {
		f.Fatal(err)
	} else if got := strconv.FormatUint(key, 16); got != sweepFuzzKey {
		f.Fatalf("the fixed program's key is %s, the seed corpus names %s", got, sweepFuzzKey)
	}
	program := submitBody(feats, n, fd)

	type sweepResp struct {
		N     *int      `json:"n"`
		Top   *int      `json:"top"`
		Idx   []int     `json:"idx"`
		Ns    []float64 `json:"ns"`
		Error string    `json:"error"`
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		for _, body := range [][]byte{nil, program} {
			r := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
			r.URL = &url.URL{Path: "/v1/sweep", RawQuery: rawQuery}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)

			var resp sweepResp
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %d bytes, status %d: response is not JSON (%v): %q", len(body), w.Code, err, w.Body.String())
			}
			if w.Code < 200 || w.Code > 299 {
				if resp.Error == "" {
					t.Fatalf("body %d bytes: status %d without an error message: %q", len(body), w.Code, w.Body.String())
				}
				continue
			}
			size, err := strconv.Atoi(r.URL.Query().Get("size"))
			if err != nil {
				t.Fatalf("body %d bytes: status %d for size %q", len(body), w.Code, r.URL.Query().Get("size"))
			}
			if resp.N == nil || *resp.N < 1 || *resp.N > size {
				t.Fatalf("body %d bytes: status %d with n outside [1, %d]: %q", len(body), w.Code, size, w.Body.String())
			}
			k := *resp.N
			if resp.Top == nil {
				if len(resp.Ns) != k || resp.Idx != nil {
					t.Fatalf("body %d bytes: n=%d but %d ns and %d idx", len(body), k, len(resp.Ns), len(resp.Idx))
				}
				continue
			}
			top := *resp.Top
			if top < 1 || top > k || len(resp.Idx) != top || len(resp.Ns) != top {
				t.Fatalf("body %d bytes: n=%d, top=%d with %d idx and %d ns", len(body), k, top, len(resp.Idx), len(resp.Ns))
			}
			seen := make(map[int]bool, top)
			for _, ci := range resp.Idx {
				if ci < 0 || ci >= k || seen[ci] {
					t.Fatalf("body %d bytes: idx %v is not %d distinct indices in [0, %d)", len(body), resp.Idx, top, k)
				}
				seen[ci] = true
			}
		}
	})
}
