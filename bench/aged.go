package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"impatience/internal/demand"
	"impatience/internal/serve"
	"impatience/internal/utility"
)

// agedMix is one traffic mix against the aged daemon.
type agedMix struct {
	flash      bool    // rotate the ranking every 4 windows (drift), else stationary
	observeHz  float64 // open-loop /v1/observe windows per second
	queryHz    float64 // open-loop /v1/allocation queries per second
	windowSec  float64 // synthetic length of one observation window
	totalRate  float64 // synthetic requests per second across the catalog
	rotateStep int     // ranks the flash ranking rotates by
}

// agedConfig is the daemon both aged workloads run: 3000 items, 100
// servers, ρ=10, µ=0.05, step:10, half-life 10 s, drift threshold 0.01.
func agedConfig(s spec) serve.Config {
	cfg := serve.Config{Items: 3000, Servers: 100, Rho: 10, Mu: 0.05, Utility: "step:10", HalfLife: 10, Drift: 0.01}
	if s.mini {
		cfg.Items = 200
	}
	return cfg
}

// Both open loops keep the observe connection under half busy on this
// machine (≈30 ms per flash window, ≈4.5 ms per steady one), so a slow
// phase of the host lengthens latencies without tipping the sender into
// a backlog that grows for the rest of the run.
var (
	flashMix  = agedMix{flash: true, observeHz: 15, queryHz: 100, windowSec: 0.5, totalRate: 1000, rotateStep: 37}
	steadyMix = agedMix{observeHz: 75, queryHz: 100, windowSec: 0.5, totalRate: 1000}
)

// openFrac is the share of a run spent in the open loop; the rest
// saturates. At 15 windows/s, 0.7 of a 20 s run leaves ten samples
// beyond the observe 95th percentile.
const openFrac = 0.7

// windowBodies renders the observe bodies a run cycles through. The seed
// permutes which items are popular; counts are rate × window exactly, so
// a stationary mix never drifts after its first solve.
func windowBodies(m agedMix, items int, seed uint64) [][]byte {
	base := demand.Pareto(items, 1, m.totalRate)
	perm := rand.New(rand.NewPCG(seed, seed^0x5eed)).Perm(items)
	n := 1
	if m.flash {
		n = 64 // 16 rotations of 4 windows, then the cycle repeats
	}
	out := make([][]byte, n)
	for k := range out {
		shift := (k / 4) * m.rotateStep
		rates := make([]float64, items)
		for i, r := range base.Rates {
			rates[(perm[i]+shift)%items] = r
		}
		out[k] = observeBody(rates, m.windowSec)
	}
	return out
}

// observeBody renders one window as the sparse JSON /v1/observe takes.
func observeBody(rates []float64, window float64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"window_sec":`)
	b.WriteString(strconv.FormatFloat(window, 'g', -1, 64))
	b.WriteString(`,"counts":{`)
	first := true
	for i, r := range rates {
		if r <= 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteByte('"')
		b.WriteString(strconv.Itoa(i))
		b.WriteString(`":`)
		b.WriteString(strconv.FormatFloat(r*window, 'g', -1, 64))
	}
	b.WriteString("}}")
	return b.Bytes()
}

// daemon is one booted server behind a loopback listener.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func (d *daemon) Close() { d.ts.Close() }

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// bootDaemon builds the server, starts the listener and sends the first
// window, which pays the cold solve.
func bootDaemon(cfg serve.Config, first []byte) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
	c := newClient()
	defer c.CloseIdleConnections()
	if err := post(c, d.ts.URL, first); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func post(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("observe: HTTP %d", resp.StatusCode)
	}
	return nil
}

func get(c *http.Client, url string, into any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if into == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// openLoop issues send(j) at due times start + j/hz until end, on the
// caller's goroutine, and returns each request's latency in ms measured
// from when it was due, plus how late the generator issued its worst
// request. A stall therefore shows up in the latency of every request
// queued behind it, not only in the one that stalled.
func openLoop(start, end time.Time, hz float64, send func(j int) error) (lat []float64, lateMax time.Duration, failed int) {
	for j := 0; ; j++ {
		due := start.Add(time.Duration(float64(j) / hz * float64(time.Second)))
		if !due.Before(end) {
			return lat, lateMax, failed
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateMax = max(lateMax, time.Since(due))
		if err := send(j); err != nil {
			failed++
			continue
		}
		lat = append(lat, float64(time.Since(due))/float64(time.Millisecond))
	}
}

func runAgedFlash(s spec, r *Result) error  { return runAged(s, flashMix, r) }
func runAgedSteady(s spec, r *Result) error { return runAged(s, steadyMix, r) }

func runAged(s spec, m agedMix, r *Result) error {
	cfg := agedConfig(s)
	bodies := windowBodies(m, cfg.Items, s.seed)
	peak := startHeapPeak()

	var d *daemon
	boots := 9
	if s.mini {
		boots = 2
	}
	setup, err := timeEach(boots, func(int) error {
		if d != nil {
			d.Close()
		}
		var err error
		d, err = bootDaemon(cfg, bodies[0])
		r.Attempted++
		return err
	})
	if err != nil {
		return err
	}
	defer d.Close()

	// Open loop: observes and queries on their own schedules, one
	// connection each.
	var window atomic.Int64
	window.Store(1)
	nextBody := func() []byte { return bodies[int(window.Add(1)-1)%len(bodies)] }
	openSec := openFrac * s.seconds
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(time.Duration(openSec * float64(time.Second)))
	obsC, qC := newClient(), newClient()
	var qLat []float64
	var qLate time.Duration
	var qFailed int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qLat, qLate, qFailed = openLoop(start, end, m.queryHz, func(int) error {
			return get(qC, d.ts.URL+"/v1/allocation", nil)
		})
	}()
	obsLat, obsLate, obsFailed := openLoop(start, end, m.observeHz, func(int) error {
		return post(obsC, d.ts.URL, nextBody())
	})
	wg.Wait()
	obsC.CloseIdleConnections()
	qC.CloseIdleConnections()
	r.Attempted += len(obsLat) + obsFailed + len(qLat) + qFailed
	r.Failed += obsFailed + qFailed

	// Saturation: two closed-loop observers, one connection each.
	satSec := s.seconds - openSec
	satStart := time.Now()
	satEnd := satStart.Add(time.Duration(satSec * float64(time.Second)))
	var sent, satFailed [workers]int // per observer
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for time.Now().Before(satEnd) {
				if err := post(c, d.ts.URL, nextBody()); err != nil {
					satFailed[k]++
					continue
				}
				sent[k]++
			}
		}()
	}
	wg.Wait()
	done := sent[0] + sent[1]
	satRate := float64(done) / time.Since(satStart).Seconds()
	r.Attempted += done + satFailed[0] + satFailed[1]
	r.Failed += satFailed[0] + satFailed[1]
	if err := peak.record(r); err != nil {
		return err
	}

	if err := agedGates(cfg, m, d, r); err != nil {
		return err
	}

	p50, _ := percentile(obsLat, 0.5)
	r.set("setup_s", median(setup), "s", boots)
	r.set("op_p50_ms", p50, "ms", len(obsLat))
	r.set("work_per_s", satRate, "1/s", done)
	r.extra("observe_p50_ms", p50, "ms", len(obsLat))
	tail(r, "observe_p95_ms", obsLat, 0.95)
	qp50, _ := percentile(qLat, 0.5)
	r.extra("query_p50_ms", qp50, "ms", len(qLat))
	tail(r, "query_p99_ms", qLat, 0.99)
	r.extra("observe_sat_per_s", satRate, "1/s", done)
	r.extra("failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted)
	r.extra("gen_lateness_max_ms", float64(max(obsLate, qLate))/float64(time.Millisecond), "ms", 0)
	return nil
}

// tail records a percentile only when enough samples lie beyond it, and
// otherwise notes the sample count that ruled it out.
func tail(r *Result, name string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	if !ok {
		r.Notes = append(r.Notes, fmt.Sprintf("%s n/a: %d samples leave fewer than %d beyond it", name, len(xs), tailMin))
		return
	}
	r.extra(name, v, "ms", len(xs))
}

// agedGates checks the daemon's final state through its public routes.
func agedGates(cfg serve.Config, m agedMix, d *daemon, r *Result) error {
	c := newClient()
	defer c.CloseIdleConnections()
	var a serve.AllocationResponse
	var st serve.StatsResponse
	if err := get(c, d.ts.URL+"/v1/allocation", &a); err != nil {
		return err
	}
	if err := get(c, d.ts.URL+"/v1/stats", &st); err != nil {
		return err
	}
	r.Attempted += 2
	sum, inBox := 0.0, len(a.Allocation) == cfg.Items
	for _, x := range a.Allocation {
		sum += x
		inBox = inBox && x >= 0 && x <= float64(cfg.Servers)
	}
	budget := float64(cfg.Servers * cfg.Rho)
	r.gate("allocation sums to the budget", math.Abs(sum-budget) <= 1e-6*budget, "sum %.9g budget %g", sum, budget)
	r.gate("allocation entries in [0, servers]", inBox, "%d entries", len(a.Allocation))
	if m.flash {
		r.gate("warm solves > 0", st.Solves.Warm > 0, "warm %d cold %d fallback %d", st.Solves.Warm, st.Solves.Cold, st.Solves.Fallback)
	} else {
		r.gate("resolves == 1", st.Resolves == 1, "resolves %d", st.Resolves)
	}
	r.extra("resolves", float64(st.Resolves), "count", 0)
	r.extra("warm_solves", float64(st.Solves.Warm), "count", 0)
	return nil
}

// serveState mirrors what the daemon keeps between windows, so the
// replay can call the serving layers one at a time.
type serveState struct {
	cfg       serve.Config
	est       *serve.Estimator
	solver    *serve.Solver
	solvedPop demand.Popularity
	alloc     []float64
	lambda    float64
	solved    []demand.Popularity // every estimate a re-solve was run on
}

func newServeState(cfg serve.Config) (*serveState, error) {
	f, err := utility.Parse(cfg.Utility)
	if err != nil {
		return nil, err
	}
	est, err := serve.NewEstimator(cfg.Items, cfg.HalfLife)
	if err != nil {
		return nil, err
	}
	solver, err := serve.NewSolver(f, cfg.Mu, cfg.Servers, cfg.Rho)
	if err != nil {
		return nil, err
	}
	return &serveState{cfg: cfg, est: est, solver: solver, alloc: make([]float64, cfg.Items)}, nil
}

// window replays one /v1/observe as the handler runs it: decode, fold,
// drift, re-solve when the drift trips, and the small response.
func (st *serveState) window(t *tracer, parent, id int, body []byte) error {
	return t.span("serve.window", parent, id, func(p int) error {
		var window, folded float64
		var counts []float64
		err := t.span("serve.decode", p, id, func(int) (err error) {
			window, counts, err = serve.ParseObserve(body, st.cfg.Items)
			for _, c := range counts {
				folded += c
			}
			return err
		})
		if err != nil {
			return err
		}
		if err := t.span("serve.fold", p, id, func(int) error { return st.est.Fold(counts, window) }); err != nil {
			return err
		}
		var cur demand.Popularity
		resp := serve.ObserveResponse{Folded: folded}
		t.span("serve.drift", p, id, func(int) error {
			cur = st.est.Snapshot()
			resp.Drift = demand.DriftL1(st.solvedPop, cur)
			resp.Resolved = cur.Total() > 0 && (st.solvedPop.Items() == 0 || resp.Drift >= st.cfg.Drift)
			return nil
		})
		if resp.Resolved {
			err := t.span("serve.solve", p, id, func(int) (err error) {
				st.alloc, st.lambda, resp.Warm, err = st.solver.Solve(cur)
				return err
			})
			if err != nil {
				return err
			}
			st.solvedPop = cur
			st.solved = append(st.solved, cur)
		}
		return t.span("serve.respond", p, id, func(int) error {
			_, err := json.Marshal(resp)
			return err
		})
	})
}

// encodeAllocation renders the body a /v1/allocation query returns.
func (st *serveState) encodeAllocation() error {
	_, err := json.Marshal(serve.AllocationResponse{
		Allocation: append([]float64(nil), st.alloc...),
		Lambda:     st.lambda,
		Observed:   st.est.Observed(),
	})
	return err
}

// replayWindows replays n windows under one root span, after a first
// window that pays the cold solve as a boot does.
func replayWindows(cfg serve.Config, bodies [][]byte, n int, t *tracer, parent int, name string) (*serveState, int, error) {
	st, err := newServeState(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := st.window(t, parent, 0, bodies[0]); err != nil {
		return nil, 0, err
	}
	var root int
	err = t.span(name, parent, -1, func(p int) error {
		root = p
		for k := 1; k <= n; k++ {
			if err := st.window(t, p, k, bodies[k%len(bodies)]); err != nil {
				return err
			}
		}
		return nil
	})
	return st, root, err
}

// httpWindows posts the same n windows to a booted daemon over one
// connection, back to back, and returns each round trip in seconds.
func httpWindows(cfg serve.Config, bodies [][]byte, n int) ([]float64, error) {
	d, err := bootDaemon(cfg, bodies[0])
	if err != nil {
		return nil, err
	}
	defer d.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	out := make([]float64, n)
	for k := 1; k <= n; k++ {
		t0 := time.Now()
		if err := post(c, d.ts.URL, bodies[k%len(bodies)]); err != nil {
			return nil, err
		}
		out[k-1] = time.Since(t0).Seconds()
	}
	return out, nil
}

// agedReplayWindows is how many windows an aged replay re-issues.
func agedReplayWindows(s spec, m agedMix) int {
	switch {
	case s.mini:
		return 12
	case m.flash:
		return 60
	}
	return 300
}

func replayAgedFlash(s spec, t *tracer, r *Result) (replayed, error) {
	return replayAged(s, flashMix, t, r)
}

func replayAgedSteady(s spec, t *tracer, r *Result) (replayed, error) {
	return replayAged(s, steadyMix, t, r)
}

func replayAged(s spec, m agedMix, t *tracer, r *Result) (replayed, error) {
	cfg := agedConfig(s)
	bodies := windowBodies(m, cfg.Items, s.seed)
	n := agedReplayWindows(s, m)
	rt, err := httpWindows(cfg, bodies, n)
	if err != nil {
		return replayed{}, err
	}
	var untraced float64
	for _, x := range rt {
		untraced += x
	}
	r.Attempted += n + 1
	st, root, err := replayWindows(cfg, bodies, n, t, 0, "aged.replay")
	if err != nil {
		return replayed{}, err
	}
	r.Attempted += n + 1
	stats := st.solver.Stats()
	if m.flash {
		r.gate("replay warm solves > 0", stats.Warm > 0, "warm %d", stats.Warm)
	} else {
		r.gate("replay re-solves once", len(st.solved) == 1, "%d solves", len(st.solved))
	}
	return replayed{root, time.Duration(untraced * float64(time.Second))}, nil
}
