// Package scenario implements the declarative chaos-scenario DSL: a
// versioned, phase-based file format ("0s..2m clean; 2m..5m lossy WAN on
// region B; 5m..6m partition region B; objstore flaky 3m..4m") with a
// strict parser, a canonical formatter that round-trips, a compiled
// link-shape table netem consults mid-transfer, and a virtual-time
// runtime that rides the faults.Clock event loop so the same file plus
// the same seed replays byte-identically through any subsystem.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
)

// Version is the scenario file format version this package reads and
// writes; files must declare it ("scenario v1") as their first directive.
const Version = 1

// Phase effect kinds.
const (
	Clean     = "clean"     // explicitly fault-free (a readability marker)
	Partition = "partition" // link or region fully unreachable
	Degrade   = "degrade"   // latency/jitter x factor, bandwidth / factor
	Shape     = "shape"     // replace specific link parameters
	Objstore  = "objstore"  // every Nth object-store attempt fails
	Silence   = "silence"   // a device's heartbeat daemon goes quiet
)

// Scenario is the parsed AST of one scenario file. Declarations and
// phases keep file order; Format preserves it, so parse-format-parse is
// the identity on the AST.
type Scenario struct {
	Name    string
	Seed    int64   // 0 = unset; the run's -seed flag governs
	Preempt float64 // training-lease preemption point, a fraction of GPU time; 0 = never
	Links   []LinkDecl
	Regions []RegionDecl
	Phases  []Phase
}

// LinkDecl names a link the scenario touches, with an optional base
// patch applied for the whole run (unpatched fields keep the fabric's
// own profile for that link).
type LinkDecl struct {
	Name  string
	Patch netem.LinkPatch
}

// RegionDecl groups links under a region name so one phase can hit all
// of a region's connectivity at once.
type RegionDecl struct {
	Name  string
	Links []string
}

// Phase is one timed effect. Start/End are offsets from the run's
// virtual epoch; which other fields matter depends on Kind.
type Phase struct {
	Start, End time.Duration
	Kind       string

	Link   string          // partition/degrade/shape target (or via Region)
	Region string          // region target, expanded through the decl
	Factor float64         // degrade: >1
	Patch  netem.LinkPatch // shape: fields to replace
	Every  int             // objstore: fail every Nth attempt
	Device string          // silence target
}

// Window is the phase's absolute fault window from a run epoch.
func (p Phase) Window(epoch time.Time) faults.Window {
	return faults.Window{Start: epoch.Add(p.Start), End: epoch.Add(p.End)}
}

// TargetLinks expands the phase's target to concrete link names: the
// single link, or every link of the region. Non-link effects (clean,
// objstore, silence) target no links.
func (p Phase) TargetLinks(s *Scenario) []string {
	switch p.Kind {
	case Partition, Degrade, Shape:
	default:
		return nil
	}
	if p.Link != "" {
		return []string{p.Link}
	}
	for _, r := range s.Regions {
		if r.Name == p.Region {
			out := make([]string, len(r.Links))
			copy(out, r.Links)
			return out
		}
	}
	return nil
}

// Target renders the phase's target for spans and event streams.
func (p Phase) Target() string {
	switch {
	case p.Link != "":
		return "link:" + p.Link
	case p.Region != "":
		return "region:" + p.Region
	case p.Device != "":
		return "device:" + p.Device
	case p.Kind == Objstore:
		return "objstore"
	default:
		return "fleet"
	}
}

// LinkNames lists the declared link names in declaration order.
func (s *Scenario) LinkNames() []string {
	out := make([]string, len(s.Links))
	for i, l := range s.Links {
		out[i] = l.Name
	}
	return out
}

// Horizon is the end of the last phase — how much virtual time a replay
// needs to cross every transition.
func (s *Scenario) Horizon() time.Duration {
	var h time.Duration
	for _, p := range s.Phases {
		if p.End > h {
			h = p.End
		}
	}
	return h
}

// overlapKeys are the resources a phase occupies for conflict checking:
// two phases may share a window only when their resources are disjoint.
func (p Phase) overlapKeys(s *Scenario) []string {
	switch p.Kind {
	case Partition, Degrade, Shape:
		links := p.TargetLinks(s)
		keys := make([]string, len(links))
		for i, l := range links {
			keys[i] = "link:" + l
		}
		return keys
	case Objstore:
		return []string{"objstore"}
	case Silence:
		return []string{"device:" + p.Device}
	}
	return nil // clean conflicts with nothing
}

// Validate checks the cross-phase constraints the line-by-line parser
// cannot: overlapping phases that fight over the same link, region,
// store, or device. Parse always calls it; hand-built scenarios should
// too.
func (s *Scenario) Validate() error {
	for i, a := range s.Phases {
		ak := a.overlapKeys(s)
		if len(ak) == 0 {
			continue
		}
		for j := i + 1; j < len(s.Phases); j++ {
			b := s.Phases[j]
			if a.Start >= b.End || b.Start >= a.End {
				continue
			}
			for _, k := range ak {
				for _, k2 := range b.overlapKeys(s) {
					if k == k2 {
						return fmt.Errorf(
							"scenario: phase %d (%s..%s %s) overlaps phase %d (%s..%s %s) on %s",
							i+1, a.Start, a.End, a.Kind, j+1, b.Start, b.End, b.Kind, k)
					}
				}
			}
		}
	}
	return nil
}

// sortedCopy returns the strings sorted without mutating the input.
func sortedCopy(in []string) []string {
	out := make([]string, len(in))
	copy(out, in)
	sort.Strings(out)
	return out
}
