// Command ageload drives an aged daemon with a synthetic request
// firehose: Pareto popularity over the catalog, optionally churned by the
// flash-crowd rotation of the robustness experiments (synth.FlashCrowd).
// Requests are aggregated client-side into observation windows — the
// firehose is represented by its per-window counts, which is how any
// high-volume deployment would feed the daemon — and allocation queries
// are interleaved at a configured rate with their latency recorded.
//
// At the end of the run ageload prints a JSON report (synthetic req/s
// offered, observe windows posted, re-solves triggered, allocation-query
// p50/p99 latency) and exits non-zero if the daemon served no allocation
// queries, never re-solved, or the p99 latency exceeds -max-p99. CI's
// bench job runs exactly this burst against a fresh aged:
//
//	ageload -addr http://127.0.0.1:8642 -items 1000 -rate 100000 \
//	        -duration 6 -window 0.5 -flash-period 1.5 -flash-stride 50 \
//	        -max-p99 100ms
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"impatience/internal/demand"
	"impatience/internal/serve"
	"impatience/internal/stats"
	"impatience/internal/synth"
)

type report struct {
	OfferedReqPerSec float64 `json:"offered_req_per_sec"`
	FoldedRequests   float64 `json:"folded_requests"`
	Windows          int     `json:"windows"`
	Shifts           int     `json:"shifts"`
	Resolves         uint64  `json:"resolves"`
	WarmSolves       uint64  `json:"warm_solves"`
	ColdSolves       uint64  `json:"cold_solves"`
	Fallbacks        uint64  `json:"fallbacks"`
	Queries          int     `json:"queries"`
	QueryP50Ms       float64 `json:"query_p50_ms"`
	QueryP99Ms       float64 `json:"query_p99_ms"`
	QueriesPerSec    float64 `json:"queries_per_sec"`
	WallSec          float64 `json:"wall_sec"`
}

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8642", "aged base URL")
		items       = flag.Int("items", 2000, "catalog size (must match the daemon)")
		omega       = flag.Float64("omega", 1, "Pareto popularity exponent")
		rate        = flag.Float64("rate", 100000, "synthetic aggregate request rate, req/s")
		duration    = flag.Float64("duration", 10, "run length, seconds of synthetic time")
		window      = flag.Float64("window", 0.5, "observation window length, seconds")
		flashPeriod = flag.Float64("flash-period", 0, "flash-crowd rotation period, seconds (0 = stationary demand)")
		flashStride = flag.Int("flash-stride", 0, "flash-crowd rotation stride, items per period")
		queries     = flag.Int("queries", 4, "allocation queries interleaved per window")
		maxP99      = flag.Duration("max-p99", 0, "fail if allocation-query p99 exceeds this (0 = no gate)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
	)
	flag.Parse()

	if err := run(*addr, *items, *omega, *rate, *duration, *window,
		*flashPeriod, *flashStride, *queries, *maxP99, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "ageload:", err)
		os.Exit(1)
	}
}

func run(addr string, items int, omega, rate, duration, window, flashPeriod float64,
	flashStride, queriesPerWindow int, maxP99, timeout time.Duration) error {
	if items <= 0 || !(rate > 0) || !(duration > 0) || !(window > 0) || window > duration {
		return fmt.Errorf("bad load shape: items=%d rate=%g duration=%g window=%g", items, rate, duration, window)
	}
	base := demand.Pareto(items, omega, rate)
	var sched demand.Schedule
	if flashPeriod > 0 && flashStride != 0 {
		var err error
		sched, err = synth.FlashCrowd(base, flashPeriod, duration, flashStride)
		if err != nil {
			return err
		}
	}

	client := &http.Client{Timeout: timeout}
	cur := base
	shiftIdx := 0
	windows := int(duration / window)
	var rep report
	var latencies []float64
	start := time.Now()
	for k := 0; k < windows; k++ {
		t := float64(k) * window
		for shiftIdx < len(sched) && sched[shiftIdx].T <= t {
			cur = sched[shiftIdx].Pop
			shiftIdx++
		}
		body, folded := observeBody(cur, window)
		if err := postObserve(client, addr, body); err != nil {
			return fmt.Errorf("window %d: %w", k, err)
		}
		rep.FoldedRequests += folded
		for q := 0; q < queriesPerWindow; q++ {
			ms, err := timedAllocationQuery(client, addr)
			if err != nil {
				return fmt.Errorf("window %d query %d: %w", k, q, err)
			}
			latencies = append(latencies, ms)
		}
	}
	rep.WallSec = time.Since(start).Seconds()
	rep.Windows = windows
	rep.Shifts = shiftIdx
	rep.OfferedReqPerSec = rep.FoldedRequests / duration
	rep.Queries = len(latencies)
	if len(latencies) > 0 {
		p := stats.Percentiles(latencies, 0.50, 0.99)
		rep.QueryP50Ms, rep.QueryP99Ms = p[0], p[1]
		rep.QueriesPerSec = float64(len(latencies)) / rep.WallSec
	}

	var st serve.StatsResponse
	if err := getJSON(client, addr+"/v1/stats", &st); err != nil {
		return err
	}
	rep.Resolves = st.Resolves
	rep.WarmSolves = st.Solves.Warm
	rep.ColdSolves = st.Solves.Cold
	rep.Fallbacks = st.Solves.Fallback

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	return rep.gate(maxP99)
}

// gate is the end-of-run verdict: the daemon must have served allocation
// queries and re-solved at least once, and the query p99 must not exceed
// maxP99 (0 = no ceiling).
func (r report) gate(maxP99 time.Duration) error {
	if r.Queries == 0 || r.QueriesPerSec <= 0 {
		return fmt.Errorf("gate: no allocation queries served")
	}
	if r.Resolves == 0 {
		return fmt.Errorf("gate: the daemon never re-solved the allocation")
	}
	if maxP99 > 0 && r.QueryP99Ms > float64(maxP99)/float64(time.Millisecond) {
		return fmt.Errorf("gate: allocation-query p99 %.3fms exceeds ceiling %v", r.QueryP99Ms, maxP99)
	}
	return nil
}

// observeBody renders one observation window: expected counts
// rate_i·window for every item with demand, as the sparse JSON map
// /v1/observe takes. Returns the body and the total count it represents.
func observeBody(pop demand.Popularity, window float64) ([]byte, float64) {
	var buf bytes.Buffer
	buf.WriteString(`{"window_sec":`)
	buf.WriteString(strconv.FormatFloat(window, 'g', -1, 64))
	buf.WriteString(`,"counts":{`)
	var total float64
	first := true
	for i, r := range pop.Rates {
		if r <= 0 {
			continue
		}
		c := r * window
		total += c
		if !first {
			buf.WriteByte(',')
		}
		first = false
		buf.WriteByte('"')
		buf.WriteString(strconv.Itoa(i))
		buf.WriteString(`":`)
		buf.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
	}
	buf.WriteString("}}")
	return buf.Bytes(), total
}

func postObserve(client *http.Client, addr string, body []byte) error {
	resp, err := client.Post(addr+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("observe: HTTP %d: %s", resp.StatusCode, msg)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func timedAllocationQuery(client *http.Client, addr string) (float64, error) {
	t0 := time.Now()
	resp, err := client.Get(addr + "/v1/allocation")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("allocation: HTTP %d", resp.StatusCode)
	}
	return float64(time.Since(t0).Microseconds()) / 1000, nil
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
