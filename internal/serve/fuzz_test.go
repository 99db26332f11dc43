package serve

import (
	"bytes"
	"math"
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
