package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// conditions are the fixed conditions of a run, recorded with it.
type conditions struct {
	Workers       int     `json:"workers"` // engine Workers = PoolWorkers = GOMAXPROCS
	Connections   int     `json:"connections"`
	Mode          string  `json:"mode"`
	CostModel     string  `json:"cost_model"`
	CacheBytes    int64   `json:"cache_bytes"` // 0 = plan cache off
	ChunkRows     int     `json:"chunk_rows"`
	ScaleFactor   float64 `json:"scale_factor"`
	Loop          string  `json:"loop"`
	OpenRateQPS   float64 `json:"open_rate_qps,omitempty"`
	DeadlineMS    int     `json:"deadline_ms"`
	RequestedSecs float64 `json:"seconds"`
	// Passes (closed loop) or Arrivals (open loop) is the fixed amount of
	// work --seconds stands for: the same on both sides of a comparison.
	// PassesRun is smaller only when the run hit cutAfter.
	Passes    int `json:"passes,omitempty"`
	PassesRun int `json:"passes_run,omitempty"`
	Arrivals  int `json:"arrivals,omitempty"`
}

// result is one run of one workload: what the last stdout line carries,
// plus everything a reader needs to judge it.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Smoke      bool              `json:"smoke,omitempty"`
	Host       hostShape         `json:"host"`
	Conditions conditions        `json:"conditions"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Samples    int               `json:"samples"` // timed requests behind the latency percentiles
	TimedS     float64           `json:"timed_s"` // how long the fixed amount of wire work took
	Metrics    map[string]metric `json:"metrics"`
	// Statements lists each statement's median latency, the inputs of
	// geomean_ms.
	Statements map[string]float64 `json:"statement_median_ms,omitempty"`
}

func (w *workload) conditions(procs int, sf, seconds float64) conditions {
	c := conditions{Workers: procs, Connections: 1, Mode: "adaptive", CostModel: "native",
		CacheBytes: 64 << 20, ChunkRows: 256, ScaleFactor: sf, Loop: "closed",
		DeadlineMS: int(requestDeadline / time.Millisecond), RequestedSecs: seconds}
	if w.cacheOff {
		c.CacheBytes = 0
	}
	if w.service {
		c.Connections = alphaConns(procs) + 1
		c.Loop = "open (alpha) + closed (hog)"
		c.OpenRateQPS = openRate
	}
	return c
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func newResult(w *workload, seed int64, trace bool) *result {
	return &result{Workload: w.name, Why: w.why, Seed: seed, Trace: trace,
		Host: readHost(), Metrics: map[string]metric{}}
}

// tally folds samples into the result's attempted / failed counts.
func (r *result) tally(samples []sample) {
	for _, s := range samples {
		r.Attempted++
		if !s.ok {
			r.Failed++
		}
	}
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.ok {
			out = append(out, f(s))
		}
	}
	return out
}

func latOf(s sample) float64  { return s.latMS }
func ttfrOf(s sample) float64 { return s.ttfrMS }

// cutAfter is how long a closed loop sized for `seconds` may take before
// it stops early: twice as long. Ordinary noise and any change within the
// bounds stay far below it; a host stall of several times (seen: 5x for
// minutes) or a program twice as slow is cut, and reported as cut.
func cutAfter(seconds float64) time.Duration {
	return time.Duration(2 * seconds * float64(time.Second))
}

// runUntraced is one run: set up once, measure, report.
func runUntraced(w *workload, seed int64, seconds float64, smoke bool) (*result, error) {
	e, err := setUp(w, smoke, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	defer e.close()
	if smoke {
		seconds = smokeSeconds
	}
	res, err := measureUntraced(e, seed, seconds, w.passes(seconds, smoke))
	if err == nil {
		res.Smoke = smoke
	}
	return res, err
}

// measureUntraced runs the timed part of a workload on a set-up
// environment and reports the end-to-end metrics. Nothing is recorded per
// request beyond its latency: tracing is off.
func measureUntraced(e *env, seed int64, seconds float64, passes int) (*result, error) {
	w := e.w
	res := newResult(w, seed, false)
	res.Conditions = w.conditions(e.procs, e.sf, seconds)

	resetPeakRSS()
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	var timed []sample
	var qps, cpuPerReq float64
	if w.service {
		cpu0 := cpuTime()
		sr, err := serviceLoad(e, rng, seconds, true, nil)
		if err != nil {
			return nil, err
		}
		cpu := cpuTime() - cpu0
		res.Conditions.Arrivals = len(sr.alpha)
		timed = sr.alpha
		res.tally(sr.alpha)
		res.tally(sr.hog)
		// alpha's achieved rate; the CPU is everybody's, so it is spread
		// over everybody's requests.
		qps = float64(len(column(sr.alpha, latOf))) / sr.wall.Seconds()
		cpuPerReq = ms(cpu) / float64(max(len(sr.alpha)+len(sr.hog), 1))
	} else {
		var stats []passStat
		var err error
		if timed, stats, err = closedLoop(e, rng, passes, cutAfter(seconds), ownProtos, nil); err != nil {
			return nil, err
		}
		res.Conditions.Passes, res.Conditions.PassesRun = passes, len(stats)
		res.tally(timed)
		// Medians over passes, so that one stalled pass does not move
		// what the whole run reports.
		var rates, cpus []float64
		for _, p := range stats {
			rates = append(rates, float64(p.n)/p.wall.Seconds())
			cpus = append(cpus, ms(p.cpu)/float64(p.n))
		}
		qps, cpuPerReq = median(rates), median(cpus)
	}
	res.TimedS = time.Since(t0).Seconds()

	lats := column(timed, latOf)
	res.Statements = statementMedians(e.stmts, timed)
	var perStmt []float64
	for _, m := range res.Statements {
		perStmt = append(perStmt, m)
	}
	res.Samples = len(lats)
	res.set("setup_s", e.setupS, "s")
	res.set("latency_p50_ms", median(lats), "ms")
	res.set("latency_p95_ms", percentile(lats, 0.95), "ms")
	res.set("geomean_ms", geomean(perStmt), "ms")
	res.set("throughput_qps", qps, "1/s")
	res.set("ttfr_p50_ms", median(column(timed, ttfrOf)), "ms")
	res.set("cpu_ms_per_req", cpuPerReq, "ms")
	res.set("peak_rss_mb", peakRSSMiB(), "MiB")
	return res, nil
}

// statementMedians names each (statement, protocol)'s median latency.
func statementMedians(stmts []*stmt, samples []sample) map[string]float64 {
	groups := map[string][]float64{}
	for _, s := range samples {
		if s.ok {
			name := stmts[s.req.stmt].name
			if len(stmts[s.req.stmt].protos) > 1 {
				name += "/" + s.req.proto.String()
			}
			groups[name] = append(groups[name], s.latMS)
		}
	}
	out := map[string]float64{}
	for name, v := range groups {
		out[name] = median(v)
	}
	return out
}

// finish prints every metric by name with its unit, writes the run's
// JSON file under out, and prints the driver's line last.
func (r *result) finish(out string) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v: %d attempted, %d failed, %d timed samples in %.1f s\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Samples, r.TimedS)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, r.fileName()), full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted,
		"failed": r.Failed, "metrics": r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d requests failed", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

func (r *result) fileName() string {
	if r.Trace {
		return r.Workload + ".trace.json"
	}
	return r.Workload + ".json"
}
