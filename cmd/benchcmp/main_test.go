package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.2, 7.5, 2.0, 4.4}, 3.1, 1.1, 3.1, 5.95},
		{[]float64{5, 1}, 3, 0, 3, 6},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	for _, c := range cases {
		if m := median(c.xs); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one sample = %v, want NaN", q1)
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
BenchmarkFig1Pipeline-2        	       1	1795432100 ns/op	         0.01877 valloss	         2.000 laps
[Fig1] pipeline: collected=1400
BenchmarkE11Federated/sync/raw/lossy-wan   	       1	 121794988 ns/op	      2714 round_ms
BenchmarkRegistryContention/sharded/g8-8   	  500000	       292.7 ns/op	      64 B/op	       2 allocs/op
BenchmarkFig1Pipeline-2        	       1	1700000000 ns/op	         0.01877 valloss	         2.000 laps
PASS
`
	s, err := parseSide(strings.NewReader(out), "change.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[key][]float64{
		{"BenchmarkFig1Pipeline", "ns/op"}:                       {1795432100, 1700000000},
		{"BenchmarkFig1Pipeline", "valloss"}:                     {0.01877, 0.01877},
		{"BenchmarkFig1Pipeline", "laps"}:                        {2, 2},
		{"BenchmarkE11Federated/sync/raw/lossy-wan", "ns/op"}:    {121794988},
		{"BenchmarkE11Federated/sync/raw/lossy-wan", "round_ms"}: {2714},
		{"BenchmarkRegistryContention/sharded/g8", "ns/op"}:      {292.7},
		{"BenchmarkRegistryContention/sharded/g8", "B/op"}:       {64},
		{"BenchmarkRegistryContention/sharded/g8", "allocs/op"}:  {2},
	}
	if len(s.samples) != len(want) {
		t.Fatalf("parsed %d metrics, want %d: %v", len(s.samples), len(want), s.samples)
	}
	for k, v := range want {
		if got := s.samples[k]; !equal(got, v) {
			t.Errorf("%v = %v, want %v", k, got, v)
		}
	}
	if s.label != "change.txt" {
		t.Errorf("label = %q, want the file name", s.label)
	}
	for name, want := range map[string]string{
		"BenchmarkX-16":          "BenchmarkX",
		"BenchmarkX/lossy-wan":   "BenchmarkX/lossy-wan",
		"BenchmarkX/w1000-2":     "BenchmarkX/w1000",
		"BenchmarkX/window-":     "BenchmarkX/window-",
		"BenchmarkX/procs8":      "BenchmarkX/procs8",
		"BenchmarkX/a-1b":        "BenchmarkX/a-1b",
		"BenchmarkX/cpu/procs-1": "BenchmarkX/cpu/procs",
	} {
		if got := trimProcs(name); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestParsePerfbench(t *testing.T) {
	out := `# stamp {"workload":"fleet","seed":1,"git_sha":"abc123","nproc":2}
# op_ms 42.3 ms
{"correct": true, "attempted": 6, "failed": 0, "metrics": {"op_ms": {"value": 42.3, "unit": "ms"}, "throughput": {"value": 23.5, "unit": "1/s"}}}
# stamp {"workload":"fleet","seed":2,"git_sha":"abc123","nproc":2}
{"correct": true, "attempted": 6, "failed": 0, "metrics": {"op_ms": {"value": 44.1, "unit": "ms"}, "throughput": {"value": 22.6, "unit": "1/s"}}}
`
	s, err := parseSide(strings.NewReader(out), "runs.txt")
	if err != nil {
		t.Fatal(err)
	}
	if s.label != "abc123" {
		t.Errorf("label = %q, want the stamp's git_sha", s.label)
	}
	if got := s.samples[key{"fleet", "op_ms"}]; !equal(got, []float64{42.3, 44.1}) {
		t.Errorf("fleet op_ms = %v", got)
	}
	if got := s.samples[key{"fleet", "throughput"}]; !equal(got, []float64{23.5, 22.6}) {
		t.Errorf("fleet throughput = %v", got)
	}
}

func TestBenchmarkJSONRules(t *testing.T) {
	rules, err := parseBenchmarkJSON([]byte(`{"end_to_end": [
		{"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25},
		{"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25}]}`))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := boundFor(rules, key{"serve", "throughput"})
	if !ok || r.lower || r.bound != 0.25 {
		t.Fatalf("serve throughput guard = %+v, %v; want higher-is-better, bound 0.25", r, ok)
	}
	if _, ok := boundFor(rules, key{"serve", "tail_ms"}); ok {
		t.Fatal("tail_ms is not an end-to-end metric, so it has no guard")
	}
}

func TestParseRulesRejects(t *testing.T) {
	for _, text := range []string{
		"bound BenchmarkX ns/op faster 0.25",
		"bound BenchmarkX ns/op lower",
		"ratio A B ns/op -2",
		"cap BenchmarkX ns/op lower 0.25",
	} {
		if _, err := parseRules(text); err == nil {
			t.Errorf("parseRules(%q) accepted", text)
		}
	}
}

// sideOf builds a side with one metric per row from the given samples.
func sideOf(label, metric string, rows map[string][]float64) *side {
	s := &side{label: label, samples: map[key][]float64{}}
	for row, xs := range rows {
		for _, x := range xs {
			s.add(key{row, metric}, x)
		}
	}
	return s
}

func judge(t *testing.T, rules string, change, base *side) (string, bool) {
	t.Helper()
	rs, err := parseRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	failed := compare(&out, rs, change, base)
	return out.String(), failed
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	const rule = "bound BenchmarkX ns/op lower 0.25"

	// Pass: 10% slower is within a 25% bound; the change wins 2 pairs.
	pass := []float64{110, 110, 110, 110, 110, 110, 110, 110, 97, 97}
	out, failed := judge(t, rule,
		sideOf("change", "ns/op", map[string][]float64{"BenchmarkX": pass}),
		sideOf("base", "ns/op", map[string][]float64{"BenchmarkX": base}))
	if failed || !strings.Contains(out, "ok (bound 0.25)") || strings.Contains(out, "unresolved") {
		t.Errorf("10%% slower judged as failed or unresolved:\n%s", out)
	}
	if !strings.Contains(out, " 2/10 ") {
		t.Errorf("want 2 of 10 pairs won:\n%s", out)
	}

	// Fail: 30% slower.
	out, failed = judge(t, rule,
		sideOf("change", "ns/op", map[string][]float64{"BenchmarkX": {130, 131, 129, 130, 130}}),
		sideOf("base", "ns/op", map[string][]float64{"BenchmarkX": base}))
	if !failed || !strings.Contains(out, "FAIL: 30.0% worse") {
		t.Errorf("30%% slower passed:\n%s", out)
	}

	// Unresolved: the base spreads wider than the bound; the medians
	// still decide, and here they pass.
	wide := []float64{60, 140, 70, 130, 100, 100, 65, 135, 100, 100}
	out, failed = judge(t, rule,
		sideOf("change", "ns/op", map[string][]float64{"BenchmarkX": {105, 105, 105}}),
		sideOf("base", "ns/op", map[string][]float64{"BenchmarkX": wide}))
	if failed || !strings.Contains(out, "ok (bound 0.25), unresolved") {
		t.Errorf("wide base not labelled unresolved with a passing verdict:\n%s", out)
	}

	// Higher is better: a throughput drop of 30% fails.
	out, failed = judge(t, "bound W throughput higher 0.25",
		sideOf("change", "throughput", map[string][]float64{"W": {70, 70, 70}}),
		sideOf("base", "throughput", map[string][]float64{"W": {100, 100, 100}}))
	if !failed || !strings.Contains(out, "FAIL") {
		t.Errorf("throughput drop passed:\n%s", out)
	}

	// A guarded row missing from the change fails.
	_, failed = judge(t, rule,
		sideOf("change", "ns/op", map[string][]float64{"BenchmarkY": {1}}),
		sideOf("base", "ns/op", map[string][]float64{"BenchmarkX": base}))
	if !failed {
		t.Error("a guarded row absent from the change passed")
	}
}

func TestRatioVerdicts(t *testing.T) {
	const rule = "ratio BenchmarkQ/float64 BenchmarkQ/int8 ns/op 2"
	base := sideOf("base", "ns/op", map[string][]float64{
		"BenchmarkQ/float64": {100, 100, 100}, "BenchmarkQ/int8": {30, 30, 30}})
	out, failed := judge(t, rule, sideOf("change", "ns/op", map[string][]float64{
		"BenchmarkQ/float64": {100, 110, 90}, "BenchmarkQ/int8": {40, 50, 45}}), base)
	if failed || !strings.Contains(out, "2.22 on the change") {
		t.Errorf("ratio 100/45 judged as failed:\n%s", out)
	}
	out, failed = judge(t, rule, sideOf("change", "ns/op", map[string][]float64{
		"BenchmarkQ/float64": {100, 100, 100}, "BenchmarkQ/int8": {55, 50, 60}}), base)
	if !failed || !strings.Contains(out, "FAIL: below min 2") {
		t.Errorf("ratio 100/55 passed:\n%s", out)
	}
}

// TestRunExitStatus drives run over files, as the command does.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rules := write("rules", "# guard\nbound BenchmarkE2GPUSweep ns/op lower 0.25\n")
	base := write("base.txt", strings.Repeat("BenchmarkE2GPUSweep-2 \t 1000000\t 200.0 ns/op\n", 10))
	fast := write("fast.txt", strings.Repeat("BenchmarkE2GPUSweep-2 \t 1000000\t 210.0 ns/op\n", 10))
	slow := write("slow.txt", strings.Repeat("BenchmarkE2GPUSweep-2 \t 1000000\t 260.0 ns/op\n", 10))
	var out bytes.Buffer
	if failed, err := run(&out, rules, fast, []string{base}); err != nil || failed {
		t.Errorf("5%% slower: failed=%v err=%v\n%s", failed, err, out.String())
	}
	out.Reset()
	if failed, err := run(&out, rules, slow, []string{base, fast}); err != nil || !failed {
		t.Errorf("30%% slower: failed=%v err=%v\n%s", failed, err, out.String())
	}
	if strings.Count(out.String(), "vs base") != 2 {
		t.Errorf("want one table per base:\n%s", out.String())
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
