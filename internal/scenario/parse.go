package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
)

// Load parses and validates the scenario file at path.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ParseString parses a scenario from a string.
func ParseString(text string) (*Scenario, error) {
	return Parse(strings.NewReader(text))
}

// Parse reads a scenario file: one directive per line, '#' comments,
// blank lines ignored. The first directive must be the version header
// ("scenario v1"); declarations (name, seed, preempt, link, region) must
// precede the first phase; links must be declared before regions or
// phases reference them. Parse is strict — anything it accepts, Format renders
// canonically and Parse accepts again with an equal AST.
func Parse(r io.Reader) (*Scenario, error) {
	s := &Scenario{}
	p := &parser{s: s}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		p.line++
		if err := p.directive(sc.Text()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if !p.sawVersion {
		return nil, fmt.Errorf("scenario: missing version header (want %q)", "scenario v1")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

type parser struct {
	s          *Scenario
	line       int
	sawVersion bool
	sawName    bool
	sawSeed    bool
	sawPreempt bool
	sawPhase   bool
	links      map[string]bool
	regions    map[string]bool
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("scenario: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) directive(raw string) error {
	if i := strings.IndexByte(raw, '#'); i >= 0 {
		raw = raw[:i]
	}
	fields := strings.Fields(raw)
	if len(fields) == 0 {
		return nil
	}
	if !p.sawVersion {
		if fields[0] != "scenario" {
			return p.errf("first directive must be %q, got %q", "scenario v1", fields[0])
		}
		if len(fields) != 2 {
			return p.errf("version header wants exactly one token, got %d", len(fields)-1)
		}
		v, okPrefix := strings.CutPrefix(fields[1], "v")
		n, err := strconv.Atoi(v)
		if !okPrefix || err != nil {
			return p.errf("bad version %q (want v1)", fields[1])
		}
		if n != Version {
			return p.errf("unsupported scenario version v%d (this reader speaks v%d)", n, Version)
		}
		p.sawVersion = true
		return nil
	}
	dir, rest := fields[0], fields[1:]
	if p.sawPhase && dir != "phase" {
		return p.errf("%s declaration after the first phase (declarations come first)", dir)
	}
	switch dir {
	case "scenario":
		return p.errf("duplicate version header")
	case "name":
		if p.sawName {
			return p.errf("duplicate name")
		}
		if len(rest) != 1 {
			return p.errf("name wants exactly one token")
		}
		if !validToken(rest[0]) {
			return p.errf("bad name %q (letters, digits, '.', '_', '-')", rest[0])
		}
		p.s.Name = rest[0]
		p.sawName = true
	case "seed":
		if p.sawSeed {
			return p.errf("duplicate seed")
		}
		if len(rest) != 1 {
			return p.errf("seed wants exactly one integer")
		}
		n, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil || n == 0 {
			return p.errf("bad seed %q (want a non-zero integer)", rest[0])
		}
		p.s.Seed = n
		p.sawSeed = true
	case "preempt":
		if p.sawPreempt {
			return p.errf("duplicate preempt")
		}
		if len(rest) != 1 {
			return p.errf("preempt wants exactly one number")
		}
		f, err := strconv.ParseFloat(rest[0], 64)
		if err != nil || !(f > 0 && f < 1) {
			return p.errf("bad preempt %q (want a fraction in (0,1))", rest[0])
		}
		p.s.Preempt = f
		p.sawPreempt = true
	case "link":
		return p.linkDecl(rest)
	case "region":
		return p.regionDecl(rest)
	case "phase":
		p.sawPhase = true
		return p.phaseDecl(rest)
	default:
		return p.errf("unknown directive %q", dir)
	}
	return nil
}

func (p *parser) linkDecl(rest []string) error {
	if len(rest) == 0 {
		return p.errf("link wants a name")
	}
	name := rest[0]
	if !validToken(name) {
		return p.errf("bad link name %q", name)
	}
	if p.links[name] {
		return p.errf("duplicate link %q", name)
	}
	patch, err := p.parsePatch(rest[1:], nil)
	if err != nil {
		return err
	}
	if p.links == nil {
		p.links = map[string]bool{}
	}
	p.links[name] = true
	p.s.Links = append(p.s.Links, LinkDecl{Name: name, Patch: patch})
	return nil
}

func (p *parser) regionDecl(rest []string) error {
	if len(rest) < 2 {
		return p.errf("region wants a name and at least one link")
	}
	name := rest[0]
	if !validToken(name) {
		return p.errf("bad region name %q", name)
	}
	if p.regions[name] {
		return p.errf("duplicate region %q", name)
	}
	seen := map[string]bool{}
	for _, l := range rest[1:] {
		if !p.links[l] {
			return p.errf("region %q references unknown link %q", name, l)
		}
		if seen[l] {
			return p.errf("region %q lists link %q twice", name, l)
		}
		seen[l] = true
	}
	if p.regions == nil {
		p.regions = map[string]bool{}
	}
	p.regions[name] = true
	p.s.Regions = append(p.s.Regions, RegionDecl{Name: name, Links: append([]string(nil), rest[1:]...)})
	return nil
}

func (p *parser) phaseDecl(rest []string) error {
	if len(rest) < 2 {
		return p.errf("phase wants START..END and an effect kind")
	}
	start, end, err := p.parseWindow(rest[0])
	if err != nil {
		return err
	}
	ph := Phase{Start: start, End: end, Kind: rest[1]}
	kvs, err := p.parseKVs(rest[2:])
	if err != nil {
		return err
	}
	used := map[string]bool{}
	take := func(key string) (string, bool) {
		for _, kv := range kvs {
			if kv.k == key {
				used[key] = true
				return kv.v, true
			}
		}
		return "", false
	}
	switch ph.Kind {
	case Clean:
		// no keys
	case Partition, Degrade, Shape:
		link, hasLink := take("link")
		region, hasRegion := take("region")
		switch {
		case hasLink == hasRegion:
			return p.errf("%s wants exactly one of link= or region=", ph.Kind)
		case hasLink:
			if !p.links[link] {
				return p.errf("unknown link %q", link)
			}
			ph.Link = link
		default:
			if !p.regions[region] {
				return p.errf("unknown region %q", region)
			}
			ph.Region = region
		}
		if ph.Kind == Degrade {
			fv, ok := take("factor")
			if !ok {
				return p.errf("degrade wants factor=")
			}
			f, err := strconv.ParseFloat(fv, 64)
			if err != nil || !(f > 1) || math.IsInf(f, 0) {
				return p.errf("bad factor %q (want a finite number > 1)", fv)
			}
			ph.Factor = f
		}
		if ph.Kind == Shape {
			patch, err := p.patchFromKVs(kvs, used)
			if err != nil {
				return err
			}
			for _, kv := range kvs {
				if !used[kv.k] {
					return p.errf("shape does not take %s=", kv.k)
				}
			}
			if patch.Zero() {
				return p.errf("shape wants at least one of latency=, bandwidth=, loss=, jitter=")
			}
			ph.Patch = patch
		}
	case Objstore:
		ph.Every = 2
		if ev, ok := take("every"); ok {
			n, err := strconv.Atoi(ev)
			if err != nil || n < 1 {
				return p.errf("bad every %q (want an integer >= 1)", ev)
			}
			ph.Every = n
		}
	case Silence:
		dev, ok := take("device")
		if !ok {
			return p.errf("silence wants device=")
		}
		if !validToken(dev) {
			return p.errf("bad device name %q", dev)
		}
		ph.Device = dev
	default:
		return p.errf("unknown phase kind %q (want clean|partition|degrade|shape|objstore|silence)", ph.Kind)
	}
	for _, kv := range kvs {
		if !used[kv.k] {
			return p.errf("%s does not take %s=", ph.Kind, kv.k)
		}
	}
	p.s.Phases = append(p.s.Phases, ph)
	return nil
}

func (p *parser) parseWindow(tok string) (start, end time.Duration, err error) {
	a, b, ok := strings.Cut(tok, "..")
	if !ok {
		return 0, 0, p.errf("bad phase window %q (want START..END, e.g. 0s..2m)", tok)
	}
	if start, err = p.parsePhaseDur(a); err != nil {
		return 0, 0, err
	}
	if end, err = p.parsePhaseDur(b); err != nil {
		return 0, 0, err
	}
	if end <= start {
		return 0, 0, p.errf("phase window %q ends at or before it starts", tok)
	}
	if end > faults.Horizon {
		return 0, 0, p.errf("phase window %q extends past the %s horizon", tok, faults.Horizon)
	}
	return start, end, nil
}

func (p *parser) parsePhaseDur(tok string) (time.Duration, error) {
	d, err := time.ParseDuration(tok)
	if err != nil {
		return 0, p.errf("bad duration %q", tok)
	}
	if d < 0 {
		return 0, p.errf("negative duration %q", tok)
	}
	return d, nil
}

type kv struct{ k, v string }

func (p *parser) parseKVs(toks []string) ([]kv, error) {
	var out []kv
	seen := map[string]bool{}
	for _, tok := range toks {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" || v == "" {
			return nil, p.errf("bad key=value %q", tok)
		}
		if seen[k] {
			return nil, p.errf("duplicate key %q", k)
		}
		seen[k] = true
		out = append(out, kv{k, v})
	}
	return out, nil
}

// parsePatch parses a link declaration's inline patch tokens.
func (p *parser) parsePatch(toks []string, used map[string]bool) (netem.LinkPatch, error) {
	kvs, err := p.parseKVs(toks)
	if err != nil {
		return netem.LinkPatch{}, err
	}
	if used == nil {
		used = map[string]bool{}
	}
	patch, err := p.patchFromKVs(kvs, used)
	if err != nil {
		return netem.LinkPatch{}, err
	}
	for _, kv := range kvs {
		if !used[kv.k] {
			return netem.LinkPatch{}, p.errf("link does not take %s=", kv.k)
		}
	}
	return patch, nil
}

func (p *parser) patchFromKVs(kvs []kv, used map[string]bool) (netem.LinkPatch, error) {
	var patch netem.LinkPatch
	for _, kv := range kvs {
		switch kv.k {
		case "latency":
			d, err := p.parsePhaseDur(kv.v)
			if err != nil {
				return patch, err
			}
			patch.Latency = &d
		case "bandwidth":
			bps, err := parseBandwidth(kv.v)
			if err != nil {
				return patch, p.errf("%v", err)
			}
			patch.Bandwidth = &bps
		case "loss":
			f, err := strconv.ParseFloat(kv.v, 64)
			if err != nil || !(f >= 0 && f < 1) {
				return patch, p.errf("bad loss %q (want a number in [0,1))", kv.v)
			}
			patch.LossRate = &f
		case "jitter":
			d, err := p.parsePhaseDur(kv.v)
			if err != nil {
				return patch, err
			}
			patch.Jitter = &d
		default:
			continue // the caller rejects unused keys with a kind-specific message
		}
		used[kv.k] = true
	}
	return patch, nil
}

// ParseBandwidth reads a "100Mbps"-style rate into bytes per second —
// the same syntax phase and link directives use, re-exported for the
// netctl control plane so live mutations speak the DSL's units.
func ParseBandwidth(tok string) (float64, error) { return parseBandwidth(tok) }

// parseBandwidth reads "100Mbps"-style rates (bps, kbps, Mbps, Gbps —
// decimal units, like iperf3) into bytes per second.
func parseBandwidth(tok string) (float64, error) {
	units := []struct {
		suffix string
		mult   float64
	}{{"Gbps", 1e9}, {"Mbps", 1e6}, {"kbps", 1e3}, {"bps", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(tok, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) {
				return 0, fmt.Errorf("bad bandwidth %q (want e.g. 100Mbps)", tok)
			}
			return f * u.mult / 8, nil
		}
	}
	return 0, fmt.Errorf("bad bandwidth %q (want a bps/kbps/Mbps/Gbps rate)", tok)
}

func validToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	// Tokens that would re-parse as key=value or windows are already
	// excluded ('=' is not in the alphabet; ".." is, so forbid it).
	return !strings.Contains(s, "..")
}
