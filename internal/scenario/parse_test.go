package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

const fullScenario = `# exercise every directive
scenario v1
name kitchen-sink
seed 7
preempt 0.4
link campus-wan latency=20ms bandwidth=100Mbps loss=0.001 jitter=2ms
link fabric
region edge-b campus-wan fabric
phase 0s..45s clean
phase 45s..1m30s shape link=campus-wan bandwidth=20Mbps loss=0.02
phase 1m30s..2m partition region=edge-b
phase 2m..2m30s degrade link=fabric factor=2.5
phase 1m..1m45s objstore every=3
phase 2m30s..3m silence device=edge-b-pi-1
`

func TestParseFullScenario(t *testing.T) {
	s, err := ParseString(fullScenario)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Name != "kitchen-sink" || s.Seed != 7 || s.Preempt != 0.4 {
		t.Fatalf("header = %q seed %d preempt %g", s.Name, s.Seed, s.Preempt)
	}
	if len(s.Links) != 2 || len(s.Regions) != 1 || len(s.Phases) != 6 {
		t.Fatalf("counts = %d links, %d regions, %d phases", len(s.Links), len(s.Regions), len(s.Phases))
	}
	p := s.Links[0].Patch
	if p.Latency == nil || *p.Latency != 20*time.Millisecond {
		t.Fatalf("campus-wan latency patch = %v", p.Latency)
	}
	if p.Bandwidth == nil || *p.Bandwidth != 12.5e6 { // 100 Mbit/s in bytes
		t.Fatalf("campus-wan bandwidth patch = %v", p.Bandwidth)
	}
	if got := s.Phases[2].TargetLinks(s); !reflect.DeepEqual(got, []string{"campus-wan", "fabric"}) {
		t.Fatalf("region expansion = %v", got)
	}
	if s.Horizon() != 3*time.Minute {
		t.Fatalf("horizon = %v", s.Horizon())
	}
}

func TestParseRejects(t *testing.T) {
	head := "scenario v1\nlink wan\nlink lan\nregion edge wan lan\n"
	cases := []struct {
		name, input, want string
	}{
		{"empty input", "", "missing version header"},
		{"missing version", "name x\n", `first directive must be "scenario v1"`},
		{"bad version token", "scenario banana\n", "bad version"},
		{"unsupported version", "scenario v2\n", "unsupported scenario version v2"},
		{"version extra tokens", "scenario v1 v1\n", "exactly one token"},
		{"duplicate version", "scenario v1\nscenario v1\n", "duplicate version header"},
		{"unknown directive", "scenario v1\nchaos now\n", `unknown directive "chaos"`},
		{"duplicate name", "scenario v1\nname a\nname b\n", "duplicate name"},
		{"bad name token", "scenario v1\nname two words=no\n", "name wants exactly one token"},
		{"name bad charset", "scenario v1\nname a/b\n", "bad name"},
		{"zero seed", "scenario v1\nseed 0\n", "bad seed"},
		{"bad seed", "scenario v1\nseed seven\n", "bad seed"},
		{"duplicate seed", "scenario v1\nseed 1\nseed 2\n", "duplicate seed"},
		{"duplicate preempt", "scenario v1\npreempt 0.5\npreempt 0.6\n", "duplicate preempt"},
		{"zero preempt", "scenario v1\npreempt 0\n", "bad preempt"},
		{"preempt one", "scenario v1\npreempt 1\n", "bad preempt"},
		{"preempt NaN", "scenario v1\npreempt NaN\n", "bad preempt"},
		{"preempt not a number", "scenario v1\npreempt soon\n", "bad preempt"},
		{"preempt extra tokens", "scenario v1\npreempt 0.5 0.6\n", "exactly one number"},
		{"duplicate link", "scenario v1\nlink wan\nlink wan\n", `duplicate link "wan"`},
		{"link unknown key", "scenario v1\nlink wan mtu=9000\n", "link does not take mtu="},
		{"link bad bandwidth", "scenario v1\nlink wan bandwidth=fast\n", "bad bandwidth"},
		{"link bandwidth no unit", "scenario v1\nlink wan bandwidth=100\n", "bad bandwidth"},
		{"link bad loss", "scenario v1\nlink wan loss=1.5\n", "bad loss"},
		{"link NaN loss", "scenario v1\nlink wan loss=NaN\n", "bad loss"},
		{"link negative latency", "scenario v1\nlink wan latency=-3ms\n", "negative duration"},
		{"region needs links", "scenario v1\nregion edge\n", "at least one link"},
		{"region unknown link", "scenario v1\nregion edge wan\n", `references unknown link "wan"`},
		{"region duplicate link", "scenario v1\nlink wan\nregion edge wan wan\n", `lists link "wan" twice`},
		{"duplicate region", head + "region edge wan\n", `duplicate region "edge"`},
		{"decl after phase", head + "phase 0s..1m clean\nlink new\n", "after the first phase"},
		{"phase bad window", head + "phase 0s-1m clean\n", "bad phase window"},
		{"negative start", head + "phase -5s..1m clean\n", "negative duration"},
		{"end before start", head + "phase 2m..1m clean\n", "ends at or before it starts"},
		{"zero length", head + "phase 1m..1m clean\n", "ends at or before it starts"},
		{"past horizon", head + "phase 0s..5h clean\n", "extends past the 4h0m0s horizon"},
		{"unknown kind", head + "phase 0s..1m meteor link=wan\n", `unknown phase kind "meteor"`},
		{"clean with keys", head + "phase 0s..1m clean link=wan\n", "clean does not take link="},
		{"partition no target", head + "phase 0s..1m partition\n", "exactly one of link= or region="},
		{"partition both targets", head + "phase 0s..1m partition link=wan region=edge\n", "exactly one of"},
		{"partition unknown link", head + "phase 0s..1m partition link=dsl\n", `unknown link "dsl"`},
		{"partition unknown region", head + "phase 0s..1m partition region=core\n", `unknown region "core"`},
		{"degrade missing factor", head + "phase 0s..1m degrade link=wan\n", "degrade wants factor="},
		{"degrade factor one", head + "phase 0s..1m degrade link=wan factor=1\n", "bad factor"},
		{"degrade factor NaN", head + "phase 0s..1m degrade link=wan factor=NaN\n", "bad factor"},
		{"shape empty patch", head + "phase 0s..1m shape link=wan\n", "shape wants at least one"},
		{"shape unknown key", head + "phase 0s..1m shape link=wan mtu=9000\n", "shape does not take mtu="},
		{"objstore bad every", head + "phase 0s..1m objstore every=0\n", "bad every"},
		{"silence no device", head + "phase 0s..1m silence\n", "silence wants device="},
		{"silence bad device", head + "phase 0s..1m silence device=a/b\n", "bad device name"},
		{"bad key value", head + "phase 0s..1m shape link=wan loss\n", `bad key=value "loss"`},
		{"duplicate key", head + "phase 0s..1m degrade link=wan factor=2 factor=3\n", `duplicate key "factor"`},
		{"overlap same link", head +
			"phase 0s..2m degrade link=wan factor=2\nphase 1m..3m partition link=wan\n",
			`overlaps phase 2 (1m0s..3m0s partition) on link:wan`},
		{"overlap via region", head +
			"phase 0s..2m partition region=edge\nphase 1m..3m shape link=lan loss=0.1\n",
			"on link:lan"},
		{"overlap objstore", head +
			"phase 0s..2m objstore every=2\nphase 1m..3m objstore every=3\n",
			"on objstore"},
		{"overlap silence same device", head +
			"phase 0s..2m silence device=pi\nphase 1m..3m silence device=pi\n",
			"on device:pi"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.input)
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.input)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestParseAllows(t *testing.T) {
	head := "scenario v1\nlink wan\nlink lan\nregion edge wan lan\n"
	cases := []struct{ name, input string }{
		{"clean overlaps anything", head + "phase 0s..2m clean\nphase 1m..3m partition link=wan\n"},
		{"different links overlap", head + "phase 0s..2m partition link=wan\nphase 1m..3m degrade link=lan factor=2\n"},
		{"different devices overlap", head + "phase 0s..2m silence device=a\nphase 1m..3m silence device=b\n"},
		{"comments and blanks", "# top\nscenario v1\n\n  # indented comment\nlink wan # trailing\n"},
		{"objstore default every", head + "phase 0s..1m objstore\n"},
		{"preempt fraction", "scenario v1\npreempt 0.47\n"},
		{"adjacent phases touch", head + "phase 0s..1m partition link=wan\nphase 1m..2m partition link=wan\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.input); err != nil {
				t.Fatalf("rejected: %v\n%s", err, tc.input)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := ParseString(fullScenario)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := Format(s)
	s2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse canonical form: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip diverged:\noriginal: %+v\nreparsed: %+v\ncanonical:\n%s", s, s2, out)
	}
	if again := Format(s2); again != out {
		t.Fatalf("format not idempotent:\n%s\nvs\n%s", out, again)
	}
}

func TestFormatBandwidthUnits(t *testing.T) {
	cases := []struct {
		bytesPerSec float64
		want        string
	}{
		{12.5e6, "100Mbps"},
		{2.5e6, "20Mbps"},
		{1.25e9, "10Gbps"},
		{125, "1kbps"},
		{0.375, "3bps"},
	}
	for _, tc := range cases {
		if got := formatBandwidth(tc.bytesPerSec); got != tc.want {
			t.Errorf("formatBandwidth(%v) = %q, want %q", tc.bytesPerSec, got, tc.want)
		}
		back, err := parseBandwidth(tc.want)
		if err != nil || back != tc.bytesPerSec {
			t.Errorf("parseBandwidth(%q) = %v, %v; want %v", tc.want, back, err, tc.bytesPerSec)
		}
	}
}

// Every library scenario must parse, validate, round-trip, and build the
// runtime the CLI runs it on.
func TestLibraryScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.scn")
	if err != nil || len(paths) < 5 {
		t.Fatalf("library glob = %v, %v (want >= 5 scenarios)", paths, err)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		s, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seen[s.Name] = true
		s2, err := ParseString(Format(s))
		if err != nil || !reflect.DeepEqual(s, s2) {
			t.Fatalf("%s does not round-trip: %v", path, err)
		}
		if _, err := NewRuntime(s, 1, faults.Epoch); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, want := range []string{"clean", "lossy-wan", "region-partition", "flash-crowd", "cascading-outage"} {
		if !seen[want] {
			t.Fatalf("library missing scenario %q (have %v)", want, seen)
		}
	}
}
