package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// recorder keeps wall-clock spans in memory, from the benchmark's side of
// each layer call. It is deliberately not obs.Tracer: fed.NewRun and
// gossip.NewRun re-clock any tracer they are handed onto the run's
// virtual clock, and these spans must stay on the wall clock. A nil
// recorder records nothing, so the untraced run calls the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one recorded interval. Parent is the index of the enclosing
// span in recorder.spans, or -1 for a root; Op ties the spans of one
// benchmark op together.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now and returns its id (-1 when r is nil).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes span id now.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose wall-clock bounds are already known.
func (r *recorder) add(name string, start, end time.Time, parent, op int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0), Parent: parent, Op: op})
	return len(r.spans) - 1
}

// totals sums, per span name, the closed spans' durations and their self
// times (duration minus the union of their children), and counts them.
func (r *recorder) totals() (dur, self map[string]time.Duration, count map[string]int) {
	dur, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]interval, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		iv := interval{s.Start, s.End}
		dur[s.Name] += s.End - s.Start
		self[s.Name] += selfTime(iv, children[i])
		count[s.Name]++
	}
	return
}

// writeJSONL writes one line of machine metadata, then one span per line.
func (r *recorder) writeJSONL(path string, st stamp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(st); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
