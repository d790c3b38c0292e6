package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Items:    64,
		Servers:  20,
		Rho:      5,
		Mu:       0.01,
		Utility:  "step:10",
		HalfLife: 30,
		Drift:    0.02,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func observedOf(t *testing.T, base string) uint64 {
	t.Helper()
	code, body := get(t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.Observed
}

func TestServeObserveThenAllocation(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))

	// Demand on 10 items: reachable capacity 200 exceeds the budget 100,
	// so the solve is interior (λ > 0), not a trivial everything-capped one.
	code, body := post(t, ts.URL+"/v1/observe",
		`{"window_sec":1,"counts":{"0":80,"1":40,"2":20,"3":10,"4":9,"5":8,"6":7,"7":6,"8":5,"9":4}}`)
	if code != http.StatusOK {
		t.Fatalf("observe: HTTP %d: %s", code, body)
	}
	var ob ObserveResponse
	if err := json.Unmarshal(body, &ob); err != nil {
		t.Fatal(err)
	}
	if ob.Folded != 189 || !ob.Resolved {
		t.Fatalf("observe response %+v, want folded=189 resolved=true", ob)
	}

	code, body = get(t, ts.URL+"/v1/allocation")
	if code != http.StatusOK {
		t.Fatalf("allocation: HTTP %d", code)
	}
	var al AllocationResponse
	if err := json.Unmarshal(body, &al); err != nil {
		t.Fatal(err)
	}
	if len(al.Allocation) != 64 {
		t.Fatalf("allocation length %d, want 64", len(al.Allocation))
	}
	var sum float64
	for _, v := range al.Allocation {
		if v < 0 || v > 20 {
			t.Fatalf("allocation entry %g outside box [0, 20]", v)
		}
		sum += v
	}
	if diff := sum - 100; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("allocation sums to %g, want budget 100", sum)
	}
	// Demand is monotone decreasing, so the optimal allocation is too.
	for i := 1; i < 4; i++ {
		if al.Allocation[i] > al.Allocation[i-1]+1e-9 {
			t.Fatalf("allocation not demand-monotone: x[%d]=%g > x[%d]=%g", i, al.Allocation[i], i-1, al.Allocation[i-1])
		}
	}
	if al.Observed != 189 {
		t.Fatalf("observed %d, want 189", al.Observed)
	}
	if !(al.Lambda > 0) {
		t.Fatalf("λ=%g, want > 0 (interior solve)", al.Lambda)
	}
}

func TestServeDriftTriggersWarmResolve(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	// Demand over 12 items so the seed solve is interior (λ > 0) and
	// leaves a warm state behind.
	wide := `{"window_sec":1,"counts":{"0":100,"1":50,"2":25,"3":20,"4":18,"5":15,"6":12,"7":10,"8":9,"9":8,"10":7,"11":6}}`
	post(t, ts.URL+"/v1/observe", wide)
	// Same shape again: below the drift threshold, no re-solve.
	code, body := post(t, ts.URL+"/v1/observe", wide)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	var ob ObserveResponse
	json.Unmarshal(body, &ob)
	if ob.Resolved {
		t.Fatalf("unchanged demand re-solved (drift %g)", ob.Drift)
	}
	// Flash crowd on a cold item: past the threshold, warm re-solve.
	code, body = post(t, ts.URL+"/v1/observe", `{"window_sec":1,"counts":{"40":500}}`)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	json.Unmarshal(body, &ob)
	if !ob.Resolved || !ob.Warm {
		t.Fatalf("flash crowd: %+v, want resolved warm re-solve", ob)
	}
}

// TestServeRejectsBadRequests walks every 4xx path and asserts the
// estimator is not mutated by a rejected request.
func TestServeRejectsBadRequests(t *testing.T) {
	cfg := testConfig(t)
	_, ts := newTestServer(t, cfg)
	post(t, ts.URL+"/v1/observe", `{"window_sec":1,"counts":{"0":10}}`)
	before := observedOf(t, ts.URL)

	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"malformed-json", "POST", "/v1/observe", `{"window_sec":1,`, http.StatusBadRequest},
		{"not-json", "POST", "/v1/observe", `hello`, http.StatusBadRequest},
		{"zero-window", "POST", "/v1/observe", `{"window_sec":0,"counts":{"0":1}}`, http.StatusBadRequest},
		{"neg-window", "POST", "/v1/observe", `{"window_sec":-1,"counts":{"0":1}}`, http.StatusBadRequest},
		{"neg-count", "POST", "/v1/observe", `{"window_sec":1,"counts":{"0":-5}}`, http.StatusBadRequest},
		{"nan-count", "POST", "/v1/observe", `{"window_sec":1,"counts":{"0":"NaN"}}`, http.StatusBadRequest},
		{"bad-index", "POST", "/v1/observe", `{"window_sec":1,"counts":{"x":1}}`, http.StatusBadRequest},
		{"index-overflow", "POST", "/v1/observe", `{"window_sec":1,"counts":{"64":1}}`, http.StatusBadRequest},
		{"neg-index", "POST", "/v1/observe", `{"window_sec":1,"counts":{"-1":1}}`, http.StatusBadRequest},
		{"unknown-field", "POST", "/v1/observe", `{"window_sec":1,"counts":{"0":1},"note":"x"}`, http.StatusBadRequest},
		{"zero-padded-index", "POST", "/v1/observe", `{"window_sec":1,"counts":{"07":1}}`, http.StatusBadRequest},
		{"unknown-utility", "GET", "/v1/psi?utility=hyperbolic:2&y=3", "", http.StatusBadRequest},
		{"malformed-utility", "GET", "/v1/psi?utility=step:&y=3", "", http.StatusBadRequest},
		{"psi-no-y", "GET", "/v1/psi", "", http.StatusBadRequest},
		{"psi-y-zero", "GET", "/v1/psi?y=0", "", http.StatusBadRequest},
		{"psi-y-huge", "GET", "/v1/psi?y=21", "", http.StatusBadRequest},
		{"snapshot-unconfigured", "POST", "/v1/snapshot", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		var code int
		var body []byte
		if tc.method == "GET" {
			code, body = get(t, ts.URL+tc.path)
		} else {
			code, body = post(t, ts.URL+tc.path, tc.body)
		}
		if code != tc.wantStatus {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, code, tc.wantStatus, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q lacks an error field", tc.name, body)
		}
	}
	if after := observedOf(t, ts.URL); after != before {
		t.Fatalf("rejected requests mutated the estimator: observed %d → %d", before, after)
	}
}

func TestServeOversizedBodyRejected(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBody = 256
	_, ts := newTestServer(t, cfg)
	big := `{"window_sec":1,"counts":{"0":` + strings.Repeat("1", 500) + `}}`
	code, _ := post(t, ts.URL+"/v1/observe", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want %d", code, http.StatusRequestEntityTooLarge)
	}
}

// TestServeTruncatedBodyRejected: a body that ends before its declared
// Content-Length is a client error, not an oversized body, and must not
// reach the estimator.
func TestServeTruncatedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	before := observedOf(t, ts.URL)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"window_sec":1,"counts":{"0":1}}`
	fmt.Fprintf(conn, "POST /v1/observe HTTP/1.1\r\nHost: aged\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body)+10, body)
	// Hang up the sending side: the server sees the body end early.
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unexpected EOF") {
		t.Fatalf("truncated body: HTTP %d %s, want %d naming the unexpected EOF", resp.StatusCode, msg, http.StatusBadRequest)
	}
	if after := observedOf(t, ts.URL); after != before {
		t.Fatalf("truncated body mutated the estimator: observed %d → %d", before, after)
	}
}

// TestServeOversizedStreamRejected: a body of undeclared length still
// hits the MaxBody cap as a 413.
func TestServeOversizedStreamRejected(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBody = 256
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := `{"window_sec":1,"counts":{"0":` + strings.Repeat("1", 500) + `}}`
	req := httptest.NewRequest("POST", "/v1/observe", io.MultiReader(strings.NewReader(big)))
	if req.ContentLength != -1 {
		t.Fatalf("request declares Content-Length %d, want unknown", req.ContentLength)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized stream: HTTP %d, want %d", rec.Code, http.StatusRequestEntityTooLarge)
	}
}

func TestServeOversizedCatalogRejectedAtBoot(t *testing.T) {
	cfg := testConfig(t)
	cfg.Items = MaxCatalog + 1
	if _, err := New(cfg); err == nil {
		t.Fatal("catalog above MaxCatalog accepted")
	}
}

func TestServePsiMatchesTransform(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	code, body := get(t, ts.URL+"/v1/psi?y=4")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	var pr PsiResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Utility != "step(τ=10)" || pr.Y != 4 {
		t.Fatalf("psi response %+v", pr)
	}
	if !(pr.Psi > 0) || !(pr.Phi > 0) {
		t.Fatalf("ψ=%g ϕ=%g, want > 0", pr.Psi, pr.Phi)
	}
	// Alias specs resolve to the same canonical table.
	_, aliasA := get(t, ts.URL+"/v1/psi?utility=exp:0.5&y=4")
	_, aliasB := get(t, ts.URL+"/v1/psi?utility=exponential:0.5&y=4")
	if !bytes.Equal(aliasA, aliasB) {
		t.Fatalf("alias specs diverge: %s vs %s", aliasA, aliasB)
	}
}

// TestServeConcurrentQueryUpdate hammers the server with concurrent
// observes and queries; run under -race this is the data-race gate for
// the RWMutex discipline.
func TestServeConcurrentQueryUpdate(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	post(t, ts.URL+"/v1/observe", `{"window_sec":1,"counts":{"0":100,"1":50}}`)

	const writers, readers, iters = 4, 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			for k := 0; k < iters; k++ {
				body := fmt.Sprintf(`{"window_sec":1,"counts":{"%d":%d,"%d":%d}}`,
					rng.IntN(64), 1+rng.IntN(400), rng.IntN(64), 1+rng.IntN(400))
				resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("observe: HTTP %d", resp.StatusCode)
					return
				}
			}
		}(uint64(w + 1))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				for _, path := range []string{"/v1/allocation", "/v1/stats", "/v1/psi?y=3"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServeSnapshotRestartRestore is the crash-recovery contract: fold
// demand, solve, snapshot, boot a brand-new server from the snapshot, and
// require the bit-identical /v1/allocation body.
func TestServeSnapshotRestartRestore(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "aged.snap")
	s1, ts1 := newTestServer(t, cfg)
	post(t, ts1.URL+"/v1/observe",
		`{"window_sec":1,"counts":{"0":313,"1":177,"2":89,"3":71,"4":55,"5":47,"6":43,"7":41,"8":33,"9":29,"63":3}}`)
	post(t, ts1.URL+"/v1/observe", `{"window_sec":2,"counts":{"0":500,"5":220,"12":90}}`)
	code, body := post(t, ts1.URL+"/v1/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot: HTTP %d: %s", code, body)
	}
	_, before := get(t, ts1.URL+"/v1/allocation")
	lambdaBefore := s1.lambda

	// "Restart": a fresh server process restoring from disk.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, after := get(t, ts2.URL+"/v1/allocation")
	if !bytes.Equal(before, after) {
		t.Fatalf("allocation not bit-identical across restart:\n before %s\n after  %s", before, after)
	}
	if s2.lambda != lambdaBefore {
		t.Fatalf("dual level drifted across restart: %g vs %g", s2.lambda, lambdaBefore)
	}
	// The restored warm state must actually warm the next solve.
	code, body = post(t, ts2.URL+"/v1/observe", `{"window_sec":1,"counts":{"30":800}}`)
	if code != http.StatusOK {
		t.Fatalf("post-restore observe: HTTP %d: %s", code, body)
	}
	var ob ObserveResponse
	json.Unmarshal(body, &ob)
	if !ob.Resolved || !ob.Warm {
		t.Fatalf("post-restore solve %+v, want warm re-solve from snapshot state", ob)
	}
}

// TestServeRestoreRejectsMismatchedConfig: state folded under one
// operating point must not seed a daemon solving a different one.
func TestServeRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "aged.snap")
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, cfg.Items)
	counts[0] = 1
	s1.est.Fold(counts, 1)
	if _, err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"items":     func(c *Config) { c.Items = 65 },
		"servers":   func(c *Config) { c.Servers = 21 },
		"rho":       func(c *Config) { c.Rho = 6 },
		"mu":        func(c *Config) { c.Mu = 0.02 },
		"utility":   func(c *Config) { c.Utility = "step:11" },
		"half-life": func(c *Config) { c.HalfLife = 60 },
	} {
		other := cfg
		mutate(&other)
		s2, err := New(other)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Restore(); err == nil {
			t.Errorf("%s mismatch: snapshot accepted", name)
		}
	}
	// The canonical-name match accepts an equivalent alias spec.
	alias := cfg
	alias.Utility = "step:10.0"
	s3, err := New(alias)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Restore(); err != nil {
		t.Errorf("alias spec step:10.0 rejected: %v", err)
	}
}

func TestServeHealthz(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: HTTP %d %q", code, body)
	}
}
