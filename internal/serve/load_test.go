package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"impatience/internal/demand"
)

// TestServeSustainsFlashCrowdLoad is the daemon's throughput gate: a
// 1000-item catalog behind a real HTTP listener must fold a flash-crowd
// firehose — 16 windows of 0.5 s at 150k offered req/s, the popularity
// ranking rotated by 37 every 4 windows, four allocation queries after
// each window — at a sustained ≥ 100k synthetic req/s per wall-clock
// second, and the rotations must trigger re-solves on the warm path.
func TestServeSustainsFlashCrowdLoad(t *testing.T) {
	const (
		items, windows = 1000, 16
		window, rate   = 0.5, 150_000.0
		minReqPerSec   = 100_000.0
	)
	_, ts := newTestServer(t, Config{
		Items: items, Servers: 100, Rho: 10, Mu: 0.05,
		Utility: "step:10", HalfLife: 10, Drift: 0.01,
	})
	base := demand.Pareto(items, 1, rate)
	counts := make([]float64, items)
	var folded float64
	start := time.Now()
	for k := 0; k < windows; k++ {
		shift := (k / 4) * 37
		for i, r := range base.Rates {
			counts[(i+shift)%items] = r * window
			folded += r * window
		}
		if code, body := post(t, ts.URL+"/v1/observe", string(renderObserve(counts, window, nil))); code != http.StatusOK {
			t.Fatalf("observe window %d: HTTP %d: %s", k, code, body)
		}
		for q := 0; q < 4; q++ {
			if code, _ := get(t, ts.URL+"/v1/allocation"); code != http.StatusOK {
				t.Fatalf("allocation query after window %d: HTTP %d", k, code)
			}
		}
	}
	sustained := folded / time.Since(start).Seconds()

	code, body := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	t.Logf("sustained %.0f req/s; %d re-solves (warm/cold/fallback %d/%d/%d)",
		sustained, st.Resolves, st.Solves.Warm, st.Solves.Cold, st.Solves.Fallback)
	if sustained < minReqPerSec {
		t.Errorf("sustained %.0f synthetic req/s, want ≥ %.0f", sustained, minReqPerSec)
	}
	if st.Resolves == 0 || st.Solves.Warm == 0 {
		t.Errorf("%d re-solves, %d warm: the warm path never engaged", st.Resolves, st.Solves.Warm)
	}
}
