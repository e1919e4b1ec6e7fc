package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceSchemaVersion is stamped on every exported JSONL record ("v") so
// downstream tools can detect format drift; bump it when the record shape
// changes. The golden-file test in this package pins the v1 layout.
const TraceSchemaVersion = 1

// TraceHeader carries a serialized SpanContext across process (or
// simulated-node) boundaries, the way W3C traceparent does for real
// distributed systems.
const TraceHeader = "X-Trace-Context"

// SpanContext is the propagatable identity of a span: enough to continue
// its trace on another "node" without sharing the *Span itself. The zero
// value is invalid and means "no trace in progress".
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context identifies a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// String serializes the context as "traceID:spanID" ("" when invalid).
func (sc SpanContext) String() string {
	if !sc.Valid() {
		return ""
	}
	return sc.TraceID + ":" + sc.SpanID
}

// ParseSpanContext inverts String.
func ParseSpanContext(s string) (SpanContext, bool) {
	i := strings.IndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: s[:i], SpanID: s[i+1:]}, true
}

// ContextFromRequest extracts a propagated span context from an incoming
// request ({} when absent or malformed).
func ContextFromRequest(r *http.Request) SpanContext {
	sc, _ := ParseSpanContext(r.Header.Get(TraceHeader))
	return sc
}

// Tracer produces hierarchical spans and collects the finished ones for
// export. It is safe for concurrent use; a nil *Tracer is a no-op.
//
// Span and trace IDs are content-derived (a hash of the name path and a
// per-parent sibling sequence number), not random: a run that creates its
// spans deterministically gets deterministic IDs, so two same-seed runs
// export byte-identical trace files.
type Tracer struct {
	mu        sync.Mutex
	clock     Clock
	rootSeq   map[string]int // root span name -> count started
	remoteSeq map[string]int // remote parent spanID/name -> count started
	finished  []*Span
}

// NewTracer builds a tracer on the wall clock.
func NewTracer() *Tracer { return NewTracerWithClock(nil) }

// NewTracerWithClock builds a tracer on an injected clock, so simulated
// time can drive span intervals in virtual-time experiments.
func NewTracerWithClock(c Clock) *Tracer {
	if c == nil {
		c = time.Now
	}
	return &Tracer{clock: c, rootSeq: map[string]int{}, remoteSeq: map[string]int{}}
}

// SetClock swaps the tracer's clock. Virtual-time harnesses that only
// learn their clock after the observer exists (fed runs resolve theirs
// from the fault plan) re-clock the tracer before opening spans, so span
// start/end times are deterministic simulated instants.
func (t *Tracer) SetClock(c Clock) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	t.clock = c
	t.mu.Unlock()
}

// Span is one timed operation. Attributes are set between Start and End;
// children link to their parent by ID and share its trace ID. A nil *Span
// is a no-op.
type Span struct {
	tracer    *Tracer
	ID        string
	TraceID   string
	ParentID  string
	Name      string
	StartTime time.Time
	EndTime   time.Time

	mu       sync.Mutex
	attrs    map[string]any
	childSeq map[string]int
	ended    bool
}

// hashID derives a compact deterministic ID from a seed string.
func hashID(prefix, seed string) string {
	h := fnv.New64a()
	io.WriteString(h, seed)
	return fmt.Sprintf("%s%012x", prefix, h.Sum64()&0xffffffffffff)
}

// Start opens a root span, beginning a new trace.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	seq := t.rootSeq[name]
	t.rootSeq[name]++
	now := t.clock()
	t.mu.Unlock()
	trace := hashID("t", fmt.Sprintf("%s#%d", name, seq))
	id := hashID("s", fmt.Sprintf("%s/%s#%d", trace, name, seq))
	return &Span{tracer: t, ID: id, TraceID: trace, Name: name, StartTime: now, attrs: map[string]any{}}
}

// StartWith opens a span under a propagated context — the receiving side
// of cross-subsystem propagation. An invalid context starts a fresh root
// trace instead, so callers thread contexts through unconditionally.
func (t *Tracer) StartWith(name string, sc SpanContext) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.Start(name)
	}
	key := sc.SpanID + "/" + name
	t.mu.Lock()
	seq := t.remoteSeq[key]
	t.remoteSeq[key]++
	now := t.clock()
	t.mu.Unlock()
	id := hashID("s", fmt.Sprintf("r/%s#%d", key, seq))
	return &Span{tracer: t, ID: id, TraceID: sc.TraceID, ParentID: sc.SpanID,
		Name: name, StartTime: now, attrs: map[string]any{}}
}

// Child opens a span nested under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.childSeq == nil {
		s.childSeq = map[string]int{}
	}
	seq := s.childSeq[name]
	s.childSeq[name]++
	s.mu.Unlock()
	t := s.tracer
	t.mu.Lock()
	now := t.clock()
	t.mu.Unlock()
	id := hashID("s", fmt.Sprintf("%s/%s#%d", s.ID, name, seq))
	return &Span{tracer: t, ID: id, TraceID: s.TraceID, ParentID: s.ID,
		Name: name, StartTime: now, attrs: map[string]any{}}
}

// Context returns the span's propagatable identity ({} for nil spans), to
// hand to another subsystem that continues the trace via StartWith.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.ID}
}

// SetAttr records a key/value attribute on the span. Values should be
// JSON-encodable; time.Duration values are exported in seconds.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := value.(time.Duration); ok {
		value = d.Seconds()
	}
	s.attrs[key] = value
}

// SetSimDuration records a simulated (virtual-time) duration attribute
// alongside the span's wall-clock interval, exported in seconds under
// "sim_<name>_s".
func (s *Span) SetSimDuration(name string, d time.Duration) {
	s.SetAttr("sim_"+name+"_s", d.Seconds())
}

// End closes the span and hands it to the tracer for export. Ending a
// span twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()
	t := s.tracer
	t.mu.Lock()
	s.EndTime = t.clock()
	t.finished = append(t.finished, s)
	t.mu.Unlock()
}

// EndErr closes the span, recording err (if non-nil) as an "error"
// attribute first.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetAttr("error", err.Error())
	}
	s.End()
}

// Attr returns the attribute stored under key (nil if absent or if the
// span is nil).
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// Finished returns the finished spans in end order (snapshot copy).
func (t *Tracer) Finished() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.finished))
	copy(out, t.finished)
	return out
}

// spanRecord is the JSONL wire form of a finished span (trace schema v1).
type spanRecord struct {
	V      int            `json:"v"`
	Trace  string         `json:"trace"`
	ID     string         `json:"id"`
	Parent string         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  string         `json:"start"`
	DurMS  float64        `json:"dur_ms"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// WriteJSONL exports every finished span as one JSON object per line,
// sorted by (start time, span ID) rather than finish order: concurrent
// span finishes race for slots in the finished list, and the sort makes
// the file's byte layout a function of what the run *did*, not how the
// scheduler interleaved it. Attribute maps are copied under the span
// lock, so export is safe while other spans are still running.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.Finished()
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].StartTime.Equal(spans[j].StartTime) {
			return spans[i].StartTime.Before(spans[j].StartTime)
		}
		return spans[i].ID < spans[j].ID
	})
	enc := json.NewEncoder(w)
	for _, s := range spans {
		s.mu.Lock()
		attrs := make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			attrs[k] = v
		}
		s.mu.Unlock()
		rec := spanRecord{
			V:      TraceSchemaVersion,
			Trace:  s.TraceID,
			ID:     s.ID,
			Parent: s.ParentID,
			Name:   s.Name,
			Start:  s.StartTime.UTC().Format(time.RFC3339Nano),
			DurMS:  float64(s.EndTime.Sub(s.StartTime)) / float64(time.Millisecond),
			Attrs:  attrs,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// SpanNames returns the names of finished spans sorted alphabetically
// (handy in tests).
func (t *Tracer) SpanNames() []string {
	var names []string
	for _, s := range t.Finished() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}
