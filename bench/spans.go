package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. parent is the index
// of the span that caused it (-1 for a root); spans of one operation
// share op (-1 outside any operation); track separates concurrent
// clients in the exported trace.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int
	op         int
	track      int
}

// recorder keeps the traced run's spans in memory until the run ends.
// Every method is a no-op on the nil recorder, which is what the
// untraced runs — the ones the end-to-end metrics come from — pass.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span now and returns its index for end and for
// children to name as their parent.
func (r *recorder) begin(name string, parent, op, track int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: now, parent: parent, op: op, track: track})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// add records a span whose interval is already known — one rebuilt from
// timings the program reports about itself (graphd's QueryStats).
func (r *recorder) add(name string, parent, op, track int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := start.Sub(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: s, end: s + d, parent: parent, op: op, track: track})
	r.mu.Unlock()
}

// spanTotal sums the spans that share a name.
type spanTotal struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTime returns each span's duration minus the part of it its
// children cover (overlapping children are counted once).
func selfTime(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, upto := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, upto), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// totals aggregates the recorded spans by name, in order of first
// appearance.
func (r *recorder) totals() []spanTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTime(r.spans)
	index := map[string]int{}
	var out []spanTotal
	for i, s := range r.spans {
		j, ok := index[s.name]
		if !ok {
			j = len(out)
			index[s.name] = j
			out = append(out, spanTotal{name: s.name})
		}
		out[j].count++
		out[j].total += s.end - s.start
		out[j].self += self[i]
	}
	return out
}

// selfOf returns the self times, in milliseconds, of every span with
// the given name.
func (r *recorder) selfOf(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTime(r.spans)
	var out []float64
	for i, s := range r.spans {
		if s.name == name {
			out = append(out, self[i].Seconds()*1e3)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds), loadable in Perfetto or chrome://tracing.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	r.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
