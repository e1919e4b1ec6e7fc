package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
)

var tableEpoch = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

func mustTable(t *testing.T, s *Scenario) *Table {
	t.Helper()
	tbl, err := NewTable(s, tableEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// A degrade factor that scales the link's latency past time.Duration's
// range is refused when the run's table is built, naming the phase.
func TestTableRejectsUnmodelledShape(t *testing.T) {
	s := mustParse(t, "scenario v1\nlink campus-wan\nphase 45s..2m15s degrade link=campus-wan factor=1e300\n")
	if _, err := NewRuntime(s, 1, tableEpoch); err == nil || !strings.Contains(err.Error(), "phase 45s..2m15s degrade") {
		t.Fatalf("NewRuntime error = %v, want one naming the phase", err)
	}
}

func mustParse(t *testing.T, text string) *Scenario {
	t.Helper()
	s, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return s
}

func TestTableCompilesPhases(t *testing.T) {
	s := mustParse(t, `scenario v1
link wan latency=10ms
link lan
region edge wan lan
phase 1m..2m shape link=wan bandwidth=2Mbps
phase 3m..4m partition region=edge
phase 5m..6m degrade link=lan factor=2
`)
	tbl := mustTable(t, s)

	// Before the first phase only the declaration's base patch holds.
	sh, next := tbl.ShapeAt("wan", tableEpoch)
	if sh.Down || sh.Factor != 0 || sh.Patch == nil || *sh.Patch.Latency != 10*time.Millisecond {
		t.Fatalf("base shape = %+v", sh)
	}
	if !next.Equal(tableEpoch.Add(time.Minute)) {
		t.Fatalf("next change = %v", next)
	}

	// Inside the shape phase the patch composes over the base.
	sh, next = tbl.ShapeAt("wan", tableEpoch.Add(90*time.Second))
	if sh.Patch == nil || sh.Patch.Bandwidth == nil || *sh.Patch.Bandwidth != 0.25e6 {
		t.Fatalf("shaped bandwidth = %+v", sh.Patch)
	}
	if sh.Patch.Latency == nil || *sh.Patch.Latency != 10*time.Millisecond {
		t.Fatalf("base latency lost during shape: %+v", sh.Patch)
	}
	if !next.Equal(tableEpoch.Add(2 * time.Minute)) {
		t.Fatalf("next change = %v", next)
	}

	// The region partition reaches both links.
	for _, link := range []string{"wan", "lan"} {
		sh, _ = tbl.ShapeAt(link, tableEpoch.Add(210*time.Second))
		if !sh.Down {
			t.Fatalf("%s not down during region partition: %+v", link, sh)
		}
	}
	sh, _ = tbl.ShapeAt("lan", tableEpoch.Add(330*time.Second))
	if sh.Factor != 2 {
		t.Fatalf("lan degrade factor = %v", sh.Factor)
	}
	// After the last phase everything reverts to base.
	sh, next = tbl.ShapeAt("wan", tableEpoch.Add(10*time.Minute))
	if sh.Down || sh.Factor != 0 {
		t.Fatalf("shape after horizon = %+v", sh)
	}
	if !next.IsZero() {
		t.Fatalf("next after horizon = %v", next)
	}
	if links := tbl.Links(); len(links) != 2 || links[0] != "lan" || links[1] != "wan" {
		t.Fatalf("links = %v, want [lan wan]", links)
	}
}

func TestTableApplyAndClear(t *testing.T) {
	s := mustParse(t, `scenario v1
link wan
phase 2m..3m partition link=wan
`)
	tbl := mustTable(t, s)
	at := tableEpoch.Add(30 * time.Second)
	bw := 1e6
	if err := tbl.Apply("wan", at, netem.LinkShape{Patch: &netem.LinkPatch{Bandwidth: &bw}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := tbl.Apply("nope", at, netem.LinkShape{}); err == nil {
		t.Fatal("apply to unknown link succeeded")
	}

	sh, next := tbl.ShapeAt("wan", at)
	if sh.Patch == nil || *sh.Patch.Bandwidth != 1e6 {
		t.Fatalf("live shape = %+v", sh)
	}
	// The scenario's scheduled partition still wins at its time.
	if !next.Equal(tableEpoch.Add(2 * time.Minute)) {
		t.Fatalf("next = %v, want the scheduled partition", next)
	}
	sh, _ = tbl.ShapeAt("wan", tableEpoch.Add(150*time.Second))
	if !sh.Down {
		t.Fatal("scheduled partition lost after a live mutation")
	}

	// Clear reverts to the scheduled script from `at` on.
	clearAt := tableEpoch.Add(time.Minute)
	if err := tbl.Clear("wan", clearAt); err != nil {
		t.Fatalf("clear: %v", err)
	}
	sh, _ = tbl.ShapeAt("wan", clearAt)
	if !sh.Zero() {
		t.Fatalf("cleared shape = %+v", sh)
	}
	sh, _ = tbl.ShapeAt("wan", tableEpoch.Add(150*time.Second))
	if !sh.Down {
		t.Fatal("scheduled partition lost after clear")
	}
}

func TestTableMergeLiveScenario(t *testing.T) {
	s := mustParse(t, "scenario v1\nlink wan\nphase 5m..6m partition link=wan\n")
	tbl := mustTable(t, s)

	live := mustParse(t, "scenario v1\nlink wan\nphase 0s..1m degrade link=wan factor=4\n")
	at := tableEpoch.Add(2 * time.Minute)
	if err := tbl.Merge(live, at); err != nil {
		t.Fatalf("merge: %v", err)
	}
	sh, _ := tbl.ShapeAt("wan", at.Add(30*time.Second))
	if sh.Factor != 4 {
		t.Fatalf("merged degrade not live: %+v", sh)
	}
	sh, _ = tbl.ShapeAt("wan", at.Add(90*time.Second))
	if !sh.Zero() {
		t.Fatalf("merged scenario should end after 1m: %+v", sh)
	}

	bad := mustParse(t, "scenario v1\nphase 0s..1m objstore\n")
	if err := tbl.Merge(bad, at); err == nil {
		t.Fatal("merge accepted an objstore phase")
	}
	if err := tbl.Merge(mustParse(t, "scenario v1\npreempt 0.5\n"), at); err == nil {
		t.Fatal("merge accepted a preemption point")
	}
	unknown := mustParse(t, "scenario v1\nlink dsl\nphase 0s..1m partition link=dsl\n")
	if err := tbl.Merge(unknown, at); err == nil {
		t.Fatal("merge accepted an unknown link")
	}
}
