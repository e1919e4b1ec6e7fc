// Command benchcmp judges benchmark samples of a change against one or
// more bases, all taken on one host.
//
//	benchcmp RULES CHANGE BASE...
//
// CHANGE and each BASE are files holding one side's samples, in either of
// two formats, mixed freely:
//
//   - `go test -bench` output. A row is a benchmark name without its -N
//     GOMAXPROCS suffix, and every value/unit pair on its line, ns/op and
//     each b.ReportMetric unit alike, is one metric's sample.
//   - perfbench output. Each run's `# stamp` line names the row (its
//     workload), and the run's JSON result line holds the metrics.
//
// The i-th samples of a row's metric on the change and on a base form a
// pair. A side is labelled by the git_sha of its first `# stamp` line, or
// else by its file name.
//
// RULES is a guard table (see scripts/ab.rules) or BENCHMARK.json, whose
// end_to_end entries guard every row. For each base benchcmp prints every
// metric's median and quartiles on both sides, the pairs the change won,
// the base's spread, (Q3-Q1)/median, and a verdict. A guarded metric
// fails when the change's median is worse than the base's by more than
// the guard's bound; one whose base spread exceeds the bound is also
// labelled unresolved, but its verdict still comes from the medians. A
// ratio guard fails when the ratio of two of the change's medians falls
// below its minimum. benchcmp exits 1 when any guard fails.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) < 4 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp RULES CHANGE BASE...")
		os.Exit(2)
	}
	failed, err := run(os.Stdout, os.Args[1], os.Args[2], os.Args[3:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

func run(w io.Writer, rulesPath, changePath string, basePaths []string) (failed bool, err error) {
	rules, err := readRules(rulesPath)
	if err != nil {
		return false, err
	}
	change, err := readSide(changePath)
	if err != nil {
		return false, err
	}
	for _, p := range basePaths {
		base, err := readSide(p)
		if err != nil {
			return false, err
		}
		if compare(w, rules, change, base) {
			failed = true
		}
	}
	return failed, nil
}

// key names one metric of one row.
type key struct{ row, metric string }

// side is one file's samples, in the order the file first names them.
type side struct {
	label   string
	samples map[key][]float64
	keys    []key
}

func (s *side) add(k key, v float64) {
	if _, ok := s.samples[k]; !ok {
		s.keys = append(s.keys, k)
	}
	s.samples[k] = append(s.samples[k], v)
}

func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := parseSide(f, filepath.Base(path))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parseSide reads go test -bench and perfbench output.
func parseSide(r io.Reader, label string) (*side, error) {
	s := &side{label: label, samples: map[key][]float64{}}
	stamped := false
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# stamp "):
			var st struct {
				Workload string `json:"workload"`
				GitSHA   string `json:"git_sha"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "# stamp ")), &st); err != nil {
				return nil, fmt.Errorf("line %d: stamp: %w", n, err)
			}
			workload = st.Workload
			if !stamped && st.GitSHA != "" {
				s.label, stamped = st.GitSHA, true
			}
		case strings.HasPrefix(line, "{") && workload != "":
			var res struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("line %d: result: %w", n, err)
			}
			names := make([]string, 0, len(res.Metrics))
			for m := range res.Metrics {
				names = append(names, m)
			}
			sort.Strings(names)
			for _, m := range names {
				s.add(key{workload, m}, res.Metrics[m].Value)
			}
			workload = ""
		case strings.HasPrefix(line, "Benchmark"):
			f := strings.Fields(line)
			if len(f) < 4 || len(f)%2 != 0 {
				continue // a name whose results follow later, or not a result
			}
			if _, err := strconv.Atoi(f[1]); err != nil {
				continue
			}
			row := trimProcs(f[0])
			for i := 2; i < len(f); i += 2 {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: %s: %w", n, f[i+1], err)
				}
				s.add(key{row, f[i+1]}, v)
			}
		}
	}
	return s, sc.Err()
}

// trimProcs drops the -N GOMAXPROCS suffix go test appends to a
// benchmark name when N is not 1.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// rule is one guard. A bound guard holds a row's metric within bound
// (a fraction) of each base's median in the worse direction; row "*"
// guards that metric on every row. A ratio guard holds
// median(row)/median(den) on the change at or above min.
type rule struct {
	ratio       bool
	row, metric string
	lower       bool
	bound       float64
	den         string
	min         float64
}

func readRules(path string) ([]rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rules []rule
	if strings.HasPrefix(strings.TrimSpace(string(data)), "{") {
		rules, err = parseBenchmarkJSON(data)
	} else {
		rules, err = parseRules(string(data))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rules, nil
}

// parseBenchmarkJSON takes BENCHMARK.json's end_to_end metrics, each
// guarding every row.
func parseBenchmarkJSON(data []byte) ([]rule, error) {
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	var rules []rule
	for _, m := range spec.EndToEnd {
		lower, err := better(m.Better)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		rules = append(rules, rule{row: "*", metric: m.Name, lower: lower, bound: m.Bound})
	}
	return rules, nil
}

// parseRules reads a guard table: per line `bound ROW METRIC lower|higher
// BOUND` or `ratio ROW DEN METRIC MIN`; # starts a comment.
func parseRules(text string) ([]rule, error) {
	var rules []rule
	for n, line := range strings.Split(text, "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		bad := func(err error) error { return fmt.Errorf("line %d: %q: %w", n+1, strings.Join(f, " "), err) }
		if len(f) != 5 || (f[0] != "bound" && f[0] != "ratio") {
			return nil, bad(fmt.Errorf("want bound ROW METRIC lower|higher BOUND or ratio ROW DEN METRIC MIN"))
		}
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil || !(v > 0) {
			return nil, bad(fmt.Errorf("limit must be a positive number"))
		}
		if f[0] == "ratio" {
			rules = append(rules, rule{ratio: true, row: f[1], den: f[2], metric: f[3], min: v})
			continue
		}
		lower, err := better(f[3])
		if err != nil {
			return nil, bad(err)
		}
		rules = append(rules, rule{row: f[1], metric: f[2], lower: lower, bound: v})
	}
	return rules, nil
}

func better(s string) (lower bool, err error) {
	switch s {
	case "lower":
		return true, nil
	case "higher":
		return false, nil
	}
	return false, fmt.Errorf("better must be lower or higher, got %q", s)
}

// boundFor returns the bound guard on k, if any.
func boundFor(rules []rule, k key) (rule, bool) {
	for _, r := range rules {
		if !r.ratio && r.metric == k.metric && (r.row == "*" || r.row == k.row) {
			return r, true
		}
	}
	return rule{}, false
}

// compare prints the change against one base and reports whether a
// guard failed.
func compare(w io.Writer, rules []rule, change, base *side) (failed bool) {
	fmt.Fprintf(w, "change %s vs base %s\n", change.label, base.label)
	fmt.Fprintf(w, "%-40s %-14s %-38s %-38s %8s %5s %7s  %s\n",
		"row", "metric", "change median [Q1 Q3]", "base median [Q1 Q3]", "delta", "won", "spread", "verdict")
	for _, k := range change.keys {
		c := change.samples[k]
		b, ok := base.samples[k]
		if !ok {
			continue
		}
		r, guarded := boundFor(rules, k)
		cm, bm := median(c), median(b)
		bq1, _, bq3 := quartiles(b)
		spread := (bq3 - bq1) / bm
		// An unguarded metric counts as lower-is-better in the pairs won.
		lower := !guarded || r.lower
		won := 0
		for i := 0; i < len(c) && i < len(b); i++ {
			if (lower && c[i] < b[i]) || (!lower && c[i] > b[i]) {
				won++
			}
		}
		verdict := ""
		if guarded {
			worse := (cm - bm) / bm
			if !lower {
				worse = -worse
			}
			verdict = fmt.Sprintf("ok (bound %g)", r.bound)
			if worse > r.bound {
				verdict = fmt.Sprintf("FAIL: %.1f%% worse, bound %g", 100*worse, r.bound)
				failed = true
			}
			if !(spread <= r.bound) {
				verdict += ", unresolved: base spread above bound"
			}
		}
		fmt.Fprintf(w, "%-40s %-14s %-38s %-38s %+7.1f%% %2d/%-2d %7.3f  %s\n",
			k.row, k.metric, summary(c), summary(b), 100*(cm-bm)/bm,
			won, min(len(c), len(b)), spread, verdict)
	}
	for _, r := range rules {
		if r.ratio {
			if ratioLine(w, r, change, base) {
				failed = true
			}
		} else if r.row != "*" {
			k := key{r.row, r.metric}
			if _, ok := change.samples[k]; !ok {
				fmt.Fprintf(w, "%-40s %-14s FAIL: no samples on the change\n", r.row, r.metric)
				failed = true
			} else if _, ok := base.samples[k]; !ok {
				fmt.Fprintf(w, "%-40s %-14s no samples on base %s, not judged\n", r.row, r.metric, base.label)
			}
		}
	}
	fmt.Fprintln(w)
	return failed
}

// ratioLine prints one ratio guard and reports whether it failed.
func ratioLine(w io.Writer, r rule, change, base *side) (failed bool) {
	name := "ratio " + r.row + " / " + r.den
	num, ok1 := change.samples[key{r.row, r.metric}]
	den, ok2 := change.samples[key{r.den, r.metric}]
	if !ok1 || !ok2 {
		fmt.Fprintf(w, "%s %s: FAIL: no samples on the change\n", name, r.metric)
		return true
	}
	ratio := median(num) / median(den)
	verdict := fmt.Sprintf("ok (min %g)", r.min)
	if !(ratio >= r.min) {
		verdict, failed = fmt.Sprintf("FAIL: below min %g", r.min), true
	}
	was := "-"
	bn, ok1 := base.samples[key{r.row, r.metric}]
	bd, ok2 := base.samples[key{r.den, r.metric}]
	if ok1 && ok2 {
		was = fmt.Sprintf("%.3g", median(bn)/median(bd))
	}
	fmt.Fprintf(w, "%s %s: %.3g on the change (base %s)  %s\n", name, r.metric, ratio, was, verdict)
	return failed
}

func summary(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", median(xs), q1, q3, len(xs))
}

// median returns the middle value of xs, the mean of the two middle
// values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// as Python's statistics.quantiles(xs, n=4) computes them with its
// default "exclusive" method (perfbench's rule); NaN below two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
