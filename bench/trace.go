package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or of one statement's walk through the layers) share Req; Parent is
// the span that caused this one, -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder's origin
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"` // duration minus what its children cover; filled by write
	// Reported marks a duration the server stated in its stats trailer
	// rather than one the bench stamped; its start is the parent's.
	Reported bool `json:"reported,omitempty"`
	// Stmt is the index of the statement the span belongs to.
	Stmt int `json:"stmt"`
}

// recorder keeps spans and counts in memory until the run ends. A nil
// recorder records nothing: that is the untraced run.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	counts map[string]int64
	nextRq int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), counts: map[string]int64{}}
}

// request hands out a fresh request identifier.
func (r *recorder) request() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextRq++
	return r.nextRq
}

// put stores a span and returns its id.
func (r *recorder) put(s span, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	s.StartNS, s.EndNS = start.Sub(r.origin).Nanoseconds(), end.Sub(r.origin).Nanoseconds()
	r.spans = append(r.spans, s)
	return s.ID
}

// add records a stamped span and returns its id.
func (r *recorder) add(name string, parent, req, stmt int, start, end time.Time) int {
	return r.put(span{Parent: parent, Req: req, Stmt: stmt, Name: name}, start, end)
}

// addReported records a server-reported duration as a child of parent,
// anchored at start.
func (r *recorder) addReported(name string, parent, req, stmt int, start time.Time, d time.Duration) int {
	return r.put(span{Parent: parent, Req: req, Stmt: stmt, Name: name, Reported: true}, start, start.Add(d))
}

// count adds n to a named counter, recorded at the same boundary as the
// spans so ratios are measured where the work happens.
func (r *recorder) count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// open starts a span whose end is not known yet (a parent recorded
// before its children); close stamps the end.
func (r *recorder) open(name string, parent, req, stmt int) int {
	now := time.Now()
	return r.add(name, parent, req, stmt, now, now)
}

func (r *recorder) close(id int) {
	if r == nil {
		return
	}
	end := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = end
	r.mu.Unlock()
}

// layerRow is one line of the trace file's summary: all spans of a name.
type layerRow struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// write computes self times and stores spans, counts and the per-name
// summary as one JSON file.
func (r *recorder) write(path string, head any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		r.spans[i].SelfNS = r.spans[i].EndNS - r.spans[i].StartNS
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			r.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
	byName := map[string]*layerRow{}
	for _, s := range r.spans {
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Spans++
		row.TotalMS += float64(s.EndNS-s.StartNS) / 1e6
		row.SelfMS += float64(s.SelfNS) / 1e6
	}
	rows := make([]layerRow, 0, len(byName))
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	out, err := json.Marshal(map[string]any{
		"run": head, "layers": rows, "counts": r.counts, "spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
