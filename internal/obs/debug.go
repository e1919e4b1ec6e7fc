package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"time"
)

// debugTraceLimit caps how many recent traces the dashboard renders; the
// tracer may hold thousands of finished spans in a long run.
const debugTraceLimit = 8

// DebugHandler serves the /debug/obs dashboard for an observer. GET
// renders an HTML dashboard (metrics snapshot tables plus a span-timeline
// waterfall of recent traces); GET ?format=json returns the same data as
// deterministic JSON; other methods get 405.
func DebugHandler(o Observer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			writeDebugJSON(w, o)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		writeDebugHTML(w, o)
	})
}

// debugHistogram is the JSON form of one histogram series on the debug
// endpoint.
type debugHistogram struct {
	Count    uint64  `json:"count"`
	Sum      float64 `json:"sum"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	P99      float64 `json:"p99"`
	Exemplar string  `json:"exemplar,omitempty"` // trace ID from the slowest tagged bucket
}

type debugSpan struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  string  `json:"start"`
	DurMS  float64 `json:"dur_ms"`
}

type debugTrace struct {
	Trace string      `json:"trace"`
	Spans []debugSpan `json:"spans"`
}

// slowestExemplar returns the trace ID tagged on the highest non-empty
// exemplar bucket — the trace behind the worst observed latency.
func slowestExemplar(h *Histogram) string {
	ex := h.Exemplars()
	for i := len(ex) - 1; i >= 0; i-- {
		if ex[i].TraceID != "" {
			return ex[i].TraceID
		}
	}
	return ""
}

// recentTraces groups finished spans by trace and returns the last
// debugTraceLimit traces ordered by root start time (spans within each
// trace sorted by (start, ID), same as the JSONL export).
func recentTraces(t *Tracer) []debugTrace {
	spans := t.Finished()
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].StartTime.Equal(spans[j].StartTime) {
			return spans[i].StartTime.Before(spans[j].StartTime)
		}
		return spans[i].ID < spans[j].ID
	})
	byTrace := map[string][]*Span{}
	var order []string // trace IDs by first span start
	for _, s := range spans {
		if _, ok := byTrace[s.TraceID]; !ok {
			order = append(order, s.TraceID)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	if len(order) > debugTraceLimit {
		order = order[len(order)-debugTraceLimit:]
	}
	out := make([]debugTrace, 0, len(order))
	for _, id := range order {
		dt := debugTrace{Trace: id}
		for _, s := range byTrace[id] {
			dt.Spans = append(dt.Spans, debugSpan{
				ID: s.ID, Parent: s.ParentID, Name: s.Name,
				Start: s.StartTime.UTC().Format(time.RFC3339Nano),
				DurMS: float64(s.EndTime.Sub(s.StartTime)) / float64(time.Millisecond),
			})
		}
		out = append(out, dt)
	}
	return out
}

func writeDebugJSON(w http.ResponseWriter, o Observer) {
	snap := o.Metrics.Snapshot()
	hists := map[string]debugHistogram{}
	if o.Metrics != nil {
		_, _, hs := o.Metrics.gather()
		for k, h := range hs {
			q := snap.HistQuantiles[k]
			hists[k] = debugHistogram{
				Count: h.Count(), Sum: h.Sum(),
				P50: q.P50, P90: q.P90, P99: q.P99,
				Exemplar: slowestExemplar(h),
			}
		}
	}
	payload := struct {
		Schema     int                       `json:"schema"`
		Counters   map[string]float64        `json:"counters"`
		Gauges     map[string]float64        `json:"gauges"`
		Histograms map[string]debugHistogram `json:"histograms"`
		Traces     []debugTrace              `json:"traces"`
	}{
		Schema:     TraceSchemaVersion,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: hists,
		Traces:     recentTraces(o.Tracer),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload) // map keys marshal sorted, so the body is deterministic
}

func writeDebugHTML(w http.ResponseWriter, o Observer) {
	fmt.Fprint(w, `<!doctype html><title>obs dashboard</title>
<style>
body{font-family:monospace;margin:1.5em;background:#fafafa}
table{border-collapse:collapse;margin:.5em 0 1.5em}
td,th{border:1px solid #bbb;padding:2px 8px;text-align:left}
th{background:#eee}
.wf{position:relative;background:#eee;height:14px;margin:1px 0;width:40em}
.wf div{position:absolute;top:1px;bottom:1px;background:#48a;min-width:2px}
.wf span{position:absolute;left:0;font-size:11px;line-height:14px;padding-left:2px;color:#222}
small{color:#666}
</style>
<h1>obs dashboard</h1>
<p><small>live metrics snapshot + recent trace waterfalls ·
<a href="?format=json">json</a></small></p>`)

	snap := o.Metrics.Snapshot()
	sortedKeys := func(n int, each func(yield func(string))) []string {
		keys := make([]string, 0, n)
		each(func(k string) { keys = append(keys, k) })
		sort.Strings(keys)
		return keys
	}

	fmt.Fprint(w, "<h2>counters</h2><table><tr><th>series</th><th>value</th></tr>")
	for _, k := range sortedKeys(len(snap.Counters), func(y func(string)) {
		for k := range snap.Counters {
			y(k)
		}
	}) {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>",
			html.EscapeString(k), formatValue(snap.Counters[k]))
	}
	fmt.Fprint(w, "</table>")

	fmt.Fprint(w, "<h2>gauges</h2><table><tr><th>series</th><th>value</th></tr>")
	for _, k := range sortedKeys(len(snap.Gauges), func(y func(string)) {
		for k := range snap.Gauges {
			y(k)
		}
	}) {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>",
			html.EscapeString(k), formatValue(snap.Gauges[k]))
	}
	fmt.Fprint(w, "</table>")

	fmt.Fprint(w, `<h2>histograms</h2><table><tr><th>series</th><th>count</th>
<th>sum</th><th>p50</th><th>p90</th><th>p99</th><th>exemplar</th></tr>`)
	var histKeys []string
	var exemplars map[string]string
	if o.Metrics != nil {
		_, _, hs := o.Metrics.gather()
		exemplars = make(map[string]string, len(hs))
		for k, h := range hs {
			histKeys = append(histKeys, k)
			exemplars[k] = slowestExemplar(h)
		}
	}
	sort.Strings(histKeys)
	for _, k := range histKeys {
		q := snap.HistQuantiles[k]
		fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			html.EscapeString(k), snap.HistCounts[k], formatValue(snap.HistSums[k]),
			formatValue(q.P50), formatValue(q.P90), formatValue(q.P99),
			html.EscapeString(exemplars[k]))
	}
	fmt.Fprint(w, "</table>")

	fmt.Fprint(w, "<h2>recent traces</h2>")
	traces := recentTraces(o.Tracer)
	if len(traces) == 0 {
		fmt.Fprint(w, "<p><small>no finished spans yet</small></p>")
	}
	for _, dt := range traces {
		fmt.Fprintf(w, "<h3>trace %s</h3>", html.EscapeString(dt.Trace))
		t0, _ := time.Parse(time.RFC3339Nano, dt.Spans[0].Start)
		var total float64 // ms spanned by the whole trace
		for _, s := range dt.Spans {
			ts, _ := time.Parse(time.RFC3339Nano, s.Start)
			if end := float64(ts.Sub(t0))/float64(time.Millisecond) + s.DurMS; end > total {
				total = end
			}
		}
		if total <= 0 {
			total = 1
		}
		for _, s := range dt.Spans {
			ts, _ := time.Parse(time.RFC3339Nano, s.Start)
			off := float64(ts.Sub(t0)) / float64(time.Millisecond)
			left := off / total * 100
			width := s.DurMS / total * 100
			fmt.Fprintf(w,
				`<div class="wf"><div style="left:%.2f%%;width:%.2f%%"></div><span>%s %.2fms</span></div>`+"\n",
				left, width, html.EscapeString(s.Name), s.DurMS)
		}
	}
}
