package scenario

import (
	"strconv"
	"strings"

	"repro/internal/netem"
)

// Format renders the scenario in canonical text: same directive order as
// the AST, fixed key order, durations via time.Duration.String, and
// bandwidths in the largest decimal unit that round-trips exactly.
// Parse(Format(s)) yields an AST equal to s.
func Format(s *Scenario) string {
	var b strings.Builder
	b.WriteString("scenario v1\n")
	if s.Name != "" {
		b.WriteString("name " + s.Name + "\n")
	}
	if s.Seed != 0 {
		b.WriteString("seed " + strconv.FormatInt(s.Seed, 10) + "\n")
	}
	if s.Preempt != 0 {
		b.WriteString("preempt " + formatFloat(s.Preempt) + "\n")
	}
	for _, l := range s.Links {
		b.WriteString("link " + l.Name)
		writePatch(&b, l.Patch)
		b.WriteByte('\n')
	}
	for _, r := range s.Regions {
		b.WriteString("region " + r.Name + " " + strings.Join(r.Links, " ") + "\n")
	}
	for _, p := range s.Phases {
		b.WriteString("phase " + p.Start.String() + ".." + p.End.String() + " " + p.Kind)
		switch {
		case p.Link != "":
			b.WriteString(" link=" + p.Link)
		case p.Region != "":
			b.WriteString(" region=" + p.Region)
		}
		switch p.Kind {
		case Degrade:
			b.WriteString(" factor=" + formatFloat(p.Factor))
		case Shape:
			writePatch(&b, p.Patch)
		case Objstore:
			b.WriteString(" every=" + strconv.Itoa(p.Every))
		case Silence:
			b.WriteString(" device=" + p.Device)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func writePatch(b *strings.Builder, p netem.LinkPatch) {
	if p.Latency != nil {
		b.WriteString(" latency=" + p.Latency.String())
	}
	if p.Bandwidth != nil {
		b.WriteString(" bandwidth=" + formatBandwidth(*p.Bandwidth))
	}
	if p.LossRate != nil {
		b.WriteString(" loss=" + formatFloat(*p.LossRate))
	}
	if p.Jitter != nil {
		b.WriteString(" jitter=" + p.Jitter.String())
	}
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// FormatBandwidth renders bytes/s in the DSL's bit-rate syntax; the
// inverse of ParseBandwidth (netctl uses it when displaying shapes).
func FormatBandwidth(bytesPerSec float64) string { return formatBandwidth(bytesPerSec) }

// formatBandwidth renders bytes/s as a decimal bit rate, picking the
// largest unit whose rendering parses back to exactly the same value
// (falling back to plain bps, which always does).
func formatBandwidth(bytesPerSec float64) string {
	bits := bytesPerSec * 8
	units := []struct {
		suffix string
		mult   float64
	}{{"Gbps", 1e9}, {"Mbps", 1e6}, {"kbps", 1e3}}
	for _, u := range units {
		q := bits / u.mult
		if q < 1 {
			continue
		}
		str := formatFloat(q)
		if parsed, err := strconv.ParseFloat(str, 64); err == nil && parsed*u.mult/8 == bytesPerSec {
			return str + u.suffix
		}
	}
	return formatFloat(bits) + "bps"
}
