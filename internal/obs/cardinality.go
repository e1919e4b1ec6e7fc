package obs

import "strings"

// MaxLabelCardinality is the budget the repo's cardinality lint enforces
// (the chaos pipeline test in internal/core and the fleet-scale tests):
// every label key on every series must stay under this many distinct
// values. Unbounded data — device IDs, request IDs, raw durations —
// belongs in trace span attrs, not metric labels.
const MaxLabelCardinality = 32

// LabelCardinality counts, for every metric-name/label-key pair present in
// the snapshot, how many distinct label values exist — the cardinality
// lint, so tests can assert that an instrumented run (a chaos pipeline, a
// 10k device fleet) labels per-shard rather than per-device or
// per-request. Keys in the returned map are "metric_name/label_key".
func (s Snapshot) LabelCardinality() map[string]int {
	seen := map[string]map[string]bool{}
	collect := func(series string) {
		open := strings.IndexByte(series, '{')
		if open < 0 {
			return
		}
		name := series[:open]
		body := strings.TrimSuffix(series[open+1:], "}")
		for _, kv := range splitLabels(body) {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				continue
			}
			key := name + "/" + kv[:eq]
			val := strings.Trim(kv[eq+1:], `"`)
			if seen[key] == nil {
				seen[key] = map[string]bool{}
			}
			seen[key][val] = true
		}
	}
	for series := range s.Counters {
		collect(series)
	}
	for series := range s.Gauges {
		collect(series)
	}
	for series := range s.HistCounts {
		collect(series)
	}
	out := make(map[string]int, len(seen))
	for k, vals := range seen {
		out[k] = len(vals)
	}
	return out
}

// splitLabels splits a canonical label body (`k="v",k2="v2"`) on the
// commas between pairs; label values are quoted, so a comma inside a value
// never terminates a pair.
func splitLabels(body string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}
