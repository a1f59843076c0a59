package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// EventKind distinguishes trace entries.
type EventKind uint8

// Event kinds.
const (
	EvMorsel EventKind = iota
	EvCompile
	EvPhase       // planning / codegen / up-front compilation
	EvFinalize    // pipeline-breaker finalization (join link / agg merge)
	EvPrune       // zone-map mask construction (Tuples/Parts = pruned tuples/blocks)
	EvDictRewrite // dictionary-code rewrites baked into a pipeline (Tuples = rewrite count)
	EvAdmit       // admission-queue wait (Start..End = queued interval)
	EvCancel      // cancellation observed (instantaneous)
	EvReplan      // mid-query reoptimization at a breaker (Tuples = observed build card)
	EvNative      // native (tier-6) install — or, when Level != LevelNative, a demotion back to the level left
)

// Event is one entry of an execution trace (the data behind Fig. 14).
type Event struct {
	Kind     EventKind
	Pipeline int
	Label    string
	Worker   int // worker lane; -1 for background compilation
	Level    Level
	Start    time.Duration // since query start
	End      time.Duration
	Tuples   int64
	Parts    int // EvFinalize: partitions used
}

// Trace records per-morsel and per-compilation timing.
type Trace struct {
	mu     sync.Mutex
	t0     time.Time
	events []Event
}

// NewTrace starts a trace clock.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Since returns the offset of t from the trace origin.
func (tr *Trace) Since(t time.Time) time.Duration { return t.Sub(tr.t0) }

// Origin returns the trace's time origin.
func (tr *Trace) Origin() time.Time { return tr.t0 }

// Merge appends another trace's events, shifted by the difference of the
// two origins — used to render multi-stage queries (Fig. 14's Q11) on a
// single time axis.
func (tr *Trace) Merge(other *Trace) {
	if other == nil {
		return
	}
	delta := other.t0.Sub(tr.t0)
	for _, ev := range other.Events() {
		ev.Start += delta
		ev.End += delta
		tr.Add(ev)
	}
}

// Add appends an event.
func (tr *Trace) Add(ev Event) {
	tr.mu.Lock()
	tr.events = append(tr.events, ev)
	tr.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time.
func (tr *Trace) Events() []Event {
	tr.mu.Lock()
	out := append([]Event(nil), tr.events...)
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Gantt renders the trace as an ASCII chart in the style of Fig. 14: one
// lane per worker (plus a compile lane), time left to right, each morsel
// drawn with a letter identifying its pipeline and compilations with 'C'.
func (tr *Trace) Gantt(width int) string {
	evs := tr.Events()
	if len(evs) == 0 {
		return "(empty trace)\n"
	}
	var total time.Duration
	maxWorker := 0
	hasCompile := false
	for _, ev := range evs {
		if ev.End > total {
			total = ev.End
		}
		if ev.Worker > maxWorker {
			maxWorker = ev.Worker
		}
		switch ev.Kind {
		case EvCompile, EvFinalize, EvPrune, EvDictRewrite, EvAdmit, EvCancel, EvReplan, EvNative:
			hasCompile = true
		}
	}
	if width <= 0 {
		width = 100
	}
	scale := func(d time.Duration) int {
		x := int(int64(d) * int64(width) / int64(total))
		if x >= width {
			x = width - 1
		}
		return x
	}
	lanes := maxWorker + 1
	if hasCompile {
		lanes++
	}
	grid := make([][]byte, lanes)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", width))
	}
	// Pipeline letters A, B, C, ... by pipeline id.
	letter := func(p int) byte {
		if p < 26 {
			return byte('a' + p)
		}
		return '?'
	}
	for _, ev := range evs {
		lane := ev.Worker
		ch := letter(ev.Pipeline)
		switch ev.Kind {
		case EvCompile:
			lane = maxWorker + 1
			ch = 'C'
		case EvFinalize:
			lane = maxWorker + 1
			ch = 'F'
		case EvPrune:
			lane = maxWorker + 1
			ch = 'Z'
		case EvDictRewrite:
			lane = maxWorker + 1
			ch = 'D'
		case EvAdmit:
			lane = maxWorker + 1
			ch = 'A'
		case EvCancel:
			lane = maxWorker + 1
			ch = 'X'
		case EvReplan:
			lane = maxWorker + 1
			ch = 'R'
		case EvNative:
			lane = maxWorker + 1
			ch = 'N'
			if ev.Level != LevelNative {
				ch = 'V' // demotion out of native
			}
		case EvPhase:
			ch = '='
		}
		if lane < 0 {
			lane = maxWorker + 1
		}
		from, to := scale(ev.Start), scale(ev.End)
		for x := from; x <= to; x++ {
			grid[lane][x] = ch
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "total %.3fms; lanes: worker 0..%d", total.Seconds()*1e3, maxWorker)
	if hasCompile {
		sb.WriteString(", then compile lane")
	}
	sb.WriteByte('\n')
	for i, row := range grid {
		name := fmt.Sprintf("w%d", i)
		if hasCompile && i == lanes-1 {
			name = "cc"
		}
		fmt.Fprintf(&sb, "%3s |%s|\n", name, row)
	}
	// Legend.
	seen := map[int]string{}
	for _, ev := range evs {
		if ev.Kind == EvMorsel {
			seen[ev.Pipeline] = ev.Label
		}
	}
	var ids []int
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&sb, "  %c = pipeline %d (%s)\n", letter(id), id, seen[id])
	}
	return sb.String()
}
