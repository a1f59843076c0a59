package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// boundsFile is where the bounds live, relative to the root of the
// checkout every command runs from.
const boundsFile = "BENCHMARK.json"

// resultSet is what -repeat left under one directory: per workload, each
// metric's values over the runs, and the requests attempted and failed.
type resultSet struct {
	metrics           map[string]map[string][]float64
	attempted, failed map[string]int
}

func (s resultSet) failedRatio(workload string) float64 {
	return float64(s.failed[workload]) / float64(max(s.attempted[workload], 1))
}

// loadSet reads every untraced result file under dir (as -repeat leaves
// them: run_<i>/<workload>.json).
func loadSet(dir string) (resultSet, error) {
	set := resultSet{metrics: map[string]map[string][]float64{},
		attempted: map[string]int{}, failed: map[string]int{}}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".trace.json") ||
			strings.HasPrefix(name, "trace_") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if set.metrics[r.Workload] == nil {
			set.metrics[r.Workload] = map[string][]float64{}
		}
		for m, v := range r.Metrics {
			set.metrics[r.Workload][m] = append(set.metrics[r.Workload][m], v.Value)
		}
		set.attempted[r.Workload] += r.Attempted
		set.failed[r.Workload] += r.Failed
		return nil
	})
	if err == nil && len(set.metrics) == 0 {
		err = fmt.Errorf("no result files under %s", dir)
	}
	return set, err
}

// compare prints, for every (workload, end-to-end metric), both sides'
// median and quartiles, the spread beside the bound, and the verdict:
// "ok", "unresolved" when either side's spread exceeds the bound (the
// runs cannot tell), or "BREACH" when B's median is worse than A's by
// more than the bound. A last row per workload holds failed / attempted,
// whose bound is +0: B may not fail a larger share of its requests than
// A. Any breach makes the command fail.
func compare(boundsPath, dirA, dirB string) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	a, err := loadSet(dirA)
	if err != nil {
		return err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(a.metrics))
	for w := range a.metrics {
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Printf("%-14s %-16s %5s | %10s %10s %10s %7s | %10s %10s %10s %7s | %8s %6s  %s\n",
		"workload", "metric", "unit", "A.q1", "A.median", "A.q3", "spread", "B.q1", "B.median", "B.q3", "spread", "worse", "bound", "verdict")
	breaches := 0
	for _, w := range names {
		for _, bd := range spec.EndToEnd {
			va, vb := a.metrics[w][bd.Name], b.metrics[w][bd.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			sa, sb := (qa3-qa1)/ma, (qb3-qb1)/mb
			worse := (mb - ma) / ma
			if bd.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > bd.Bound:
				verdict = "BREACH"
				breaches++
			case (sa > bd.Bound || sb > bd.Bound) && bd.Name != "setup_s":
				verdict = "unresolved"
			}
			fmt.Printf("%-14s %-16s %5s | %10.4f %10.4f %10.4f %6.1f%% | %10.4f %10.4f %10.4f %6.1f%% | %+7.1f%% %5.0f%%  %s\n",
				w, bd.Name, bd.Unit, qa1, ma, qa3, 100*sa, qb1, mb, qb3, 100*sb, 100*worse, 100*bd.Bound, verdict)
		}
		if b.attempted[w] == 0 {
			continue
		}
		verdict := "ok"
		if b.failedRatio(w) > a.failedRatio(w) {
			verdict = "BREACH"
			breaches++
		}
		fmt.Printf("%-14s %-16s %5s | A %d / %d | B %d / %d | bound +0  %s\n", w, "failed_ratio", "ratio",
			a.failed[w], a.attempted[w], b.failed[w], b.attempted[w], verdict)
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", breaches)
	}
	return nil
}
