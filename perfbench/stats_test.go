package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs, small samples' extrapolation included.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5.0, 1.5, 9.25, 2.0, 7.5, 3.0}, [3]float64{1.875, 4.0, 7.9375}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n, failed int
		pct, v    float64
		ok        bool
	}{
		{n: 1000, pct: 99, v: 990, ok: true},     // p99.9 has 1 beyond
		{n: 10000, pct: 99.9, v: 9990, ok: true}, // p99.9 has 10 beyond
		{n: 100, pct: 90, v: 90, ok: true},
		{n: 20, pct: 50, v: 10, ok: true},
		{n: 19, ok: false}, // the median has 9 beyond
		{n: 10, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n), c.failed, 10)
		if ok != c.ok || ok && (pct != c.pct || v != c.v) {
			t.Errorf("tail(%d samples) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.v, c.ok)
		}
	}
}

func TestTailCountsFailuresBeyondEveryLimit(t *testing.T) {
	xs := make([]float64, 995)
	for i := range xs {
		xs[i] = 1
	}
	// 995 fast replies and 5 failures: p99 (rank 990) is still a reply.
	if pct, v, _ := tail(xs, 5, 10); pct != 99 || v != 1 {
		t.Errorf("5 failures: p%v = %v, want p99 = 1", pct, v)
	}
	// 15 failures in 1010 requests: rank 1000 lands on a failure.
	if pct, v, _ := tail(xs, 15, 10); pct != 99 || !math.IsInf(v, 1) {
		t.Errorf("15 failures: p%v = %v, want p99 = +Inf", pct, v)
	}
	// Failures alone still count as samples.
	if _, v, ok := tail(nil, 20, 10); !ok || !math.IsInf(v, 1) {
		t.Errorf("all failed: %v %v, want +Inf", v, ok)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{ms(10, 20), ms(30, 40)}, 80 * time.Millisecond},
		{"overlapping counted once", []interval{ms(10, 30), ms(20, 40), ms(25, 35)}, 70 * time.Millisecond},
		{"nested", []interval{ms(10, 60), ms(20, 30)}, 50 * time.Millisecond},
		{"clipped to parent", []interval{ms(-10, 10), ms(90, 120)}, 80 * time.Millisecond},
		{"outside parent", []interval{ms(150, 160)}, 100 * time.Millisecond},
		{"covering", []interval{ms(0, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(ms(0, 100), c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

// Stretches with more than the median steal share are left out, one slow
// stretch among the rest does not drag the medians, and a failed
// stretch's ops count neither as throughput nor as op time.
func TestStretchMedians(t *testing.T) {
	ms := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n) * time.Millisecond
		}
		return out
	}
	r := &result{stretches: []stretch{
		{attempted: 2, wall: ms(1000)[0], cpu: ms(1800)[0], ops: ms(400, 500)},
		{attempted: 2, wall: ms(1200)[0], cpu: ms(2000)[0], ops: ms(500, 600), steal: 0.01},
		{attempted: 2, wall: ms(9000)[0], cpu: ms(9000)[0], ops: ms(4000, 5000)}, // slow stretch
		{attempted: 2, failed: 2, wall: ms(800)[0], cpu: ms(1600)[0]},
		{attempted: 2, wall: ms(1100)[0], cpu: ms(1900)[0], ops: ms(450, 560), steal: 0.01},
		{attempted: 2, wall: ms(3000)[0], cpu: ms(2400)[0], ops: ms(1400, 1500), steal: 0.2},  // stolen
		{attempted: 2, wall: ms(2800)[0], cpu: ms(2300)[0], ops: ms(1300, 1400), steal: 0.15}, // stolen
	}}
	if got := len(quiet(r.stretches)); got != 5 {
		t.Fatalf("quiet kept %d stretches, want the 5 at or under the median steal share", got)
	}
	m := endToEndMetrics(r)
	if got, want := m["op_ms"], 527.5; got != want { // median of 450, 550, 4500, 505
		t.Errorf("op_ms = %v, want %v", got, want)
	}
	if got, want := m["throughput"], 2/1.2; got != want { // median of 2, 1.67, 0.22, 0, 1.82
		t.Errorf("throughput = %v, want %v", got, want)
	}
	if got, want := m["cpu_ms_per_op"], 950.0; got != want { // median of 900, 1000, 4500, 800, 950
		t.Errorf("cpu_ms_per_op = %v, want %v", got, want)
	}
	r.medianOp = true // median of 400, 500, 500, 600, 4000, 5000, 450, 560
	if got, want := opMS(r), 530.0; got != want {
		t.Errorf("op_ms of overlapping ops = %v, want %v", got, want)
	}
	calm := []stretch{{steal: 0}, {steal: 0}, {steal: 0}}
	if got := len(quiet(calm)); got != 3 {
		t.Errorf("without steal quiet kept %d of 3 stretches", got)
	}
}

func TestRecorderTotals(t *testing.T) {
	r := newRecorder()
	t0 := r.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("op", at(0), at(100), -1, 0)
	r.add("child", at(10), at(40), root, 0)
	r.add("child", at(30), at(50), root, 0)
	r.begin("open", -1, 0) // never ended: left out
	var nilRec *recorder
	if id := nilRec.begin("x", -1, 0); id != -1 {
		t.Errorf("nil recorder begin = %d, want -1", id)
	}
	dur, self, count := r.totals()
	if dur["op"] != 100*time.Millisecond || self["op"] != 60*time.Millisecond {
		t.Errorf("op: dur %v self %v, want 100ms and 60ms", dur["op"], self["op"])
	}
	if dur["child"] != 50*time.Millisecond || count["child"] != 2 {
		t.Errorf("child: dur %v count %d, want 50ms and 2", dur["child"], count["child"])
	}
	if _, ok := count["open"]; ok {
		t.Error("an unended span was counted")
	}
}

// Metric names and units must stay within the character sets the
// benchmark's result consumers accept.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestMetricNameCharacterSet(t *testing.T) {
	for _, bad := range []string{"", "_lead", ".lead", "has space", "ünicode", "slash/ed", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"op_ms", "pilot.infer_batch_ms.b1", "9lives", "a-b", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", "m s", "s (modelled)", strings.Repeat("s", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(d.name) || !validUnit(d.unit) {
			t.Errorf("metric %q unit %q outside the character set", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(table string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the harness reports %d", table, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d] = %s (%s), harness has %s (%s)", table, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
	}
}
