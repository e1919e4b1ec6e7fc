package scenario

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/netem"
)

// epoch is one step of a link's shape timeline: the shape holds from at
// until the next epoch.
type epoch struct {
	at    time.Time
	shape netem.LinkShape
}

// Table is a compiled shape timeline per link: the scenario's link
// phases flattened into absolute-time steps netem can binary-search on
// every transfer, plus a live overlay netctl mutates mid-run. It
// implements netem.Shaper and is safe for concurrent use.
type Table struct {
	mu    sync.Mutex
	sched map[string][]epoch // pristine compiled timeline (Clear restores from it)
	live  map[string][]epoch // working timeline (starts as a copy of sched)
	names []string           // declared links, sorted
}

// NewTable compiles the scenario's link declarations and link phases
// into a shape timeline anchored at the run epoch. A phase whose shape
// does not fit its link (see compileLink) is an error naming the phase.
func NewTable(s *Scenario, start time.Time) (*Table, error) {
	t := &Table{sched: map[string][]epoch{}, live: map[string][]epoch{}}
	for _, decl := range s.Links {
		es, err := compileLink(s, decl, start)
		if err != nil {
			return nil, err
		}
		t.sched[decl.Name] = es
	}
	t.names = sortedCopy(s.LinkNames())
	for name, es := range t.sched {
		t.live[name] = append([]epoch(nil), es...)
	}
	return t, nil
}

// checkShape composes a shape with the link's base profile (the stock
// netem link of that name, as netctl and the CLI transfer on), so a
// shape netem could not model is refused where it is declared.
func checkShape(link string, sh netem.LinkShape) error {
	base, _ := netem.ByName(link)
	_, err := sh.Apply(base)
	return err
}

// compileLink flattens every phase targeting the link into sorted epochs.
// The declaration's base patch holds outside phases; inside one, the
// phase's effect composes over the base. Overlap validation guarantees
// at most one phase covers a link at any instant, so one sweep over the
// link's phases in start order emits every epoch: the phase's shape at
// its start, and the base again at its end unless the next phase starts
// right there. Every phase's shape must compose with the link's base
// profile (checkShape).
func compileLink(s *Scenario, decl LinkDecl, start time.Time) ([]epoch, error) {
	base := netem.LinkShape{}
	if !decl.Patch.Zero() {
		p := decl.Patch
		base.Patch = &p
	}
	var phs []Phase
	for _, ph := range s.Phases {
		if targetsLink(ph, s, decl.Name) {
			phs = append(phs, ph)
		}
	}
	sort.SliceStable(phs, func(i, j int) bool { return phs[i].Start < phs[j].Start })
	es := []epoch{{at: start, shape: base}}
	for i, ph := range phs {
		if ph.Start > 0 { // a phase from 0 replaces the base epoch there
			es = append(es, epoch{at: start.Add(ph.Start)})
		}
		sh := composeShape(base, ph)
		if err := checkShape(decl.Name, sh); err != nil {
			return nil, fmt.Errorf("scenario: phase %v..%v %s %s: %w", ph.Start, ph.End, ph.Kind, ph.Target(), err)
		}
		es[len(es)-1].shape = sh
		if i+1 == len(phs) || phs[i+1].Start > ph.End {
			es = append(es, epoch{at: start.Add(ph.End), shape: base})
		}
	}
	return es, nil
}

func targetsLink(ph Phase, s *Scenario, link string) bool {
	for _, l := range ph.TargetLinks(s) {
		if l == link {
			return true
		}
	}
	return false
}

// composeShape layers a phase's effect over the link's base shape: shape
// patches override base patch fields, degrade keeps the base patch and
// adds the factor, partition keeps the base patch and goes down.
func composeShape(base netem.LinkShape, ph Phase) netem.LinkShape {
	out := netem.LinkShape{}
	var merged netem.LinkPatch
	if base.Patch != nil {
		merged = *base.Patch
	}
	switch ph.Kind {
	case Partition:
		out.Down = true
	case Degrade:
		out.Factor = ph.Factor
	case Shape:
		if ph.Patch.Latency != nil {
			merged.Latency = ph.Patch.Latency
		}
		if ph.Patch.Bandwidth != nil {
			merged.Bandwidth = ph.Patch.Bandwidth
		}
		if ph.Patch.LossRate != nil {
			merged.LossRate = ph.Patch.LossRate
		}
		if ph.Patch.Jitter != nil {
			merged.Jitter = ph.Patch.Jitter
		}
	}
	if !merged.Zero() {
		p := merged
		out.Patch = &p
	}
	return out
}

// ShapeAt implements netem.Shaper: the shape holding at the instant and
// when it next changes (zero = never). Unknown links are unshaped.
func (t *Table) ShapeAt(link string, at time.Time) (netem.LinkShape, time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	es := t.live[link]
	// idx is the last epoch at or before `at`.
	idx := sort.Search(len(es), func(i int) bool { return es[i].at.After(at) }) - 1
	var sh netem.LinkShape
	if idx >= 0 {
		sh = es[idx].shape
	}
	var next time.Time
	if idx+1 < len(es) {
		next = es[idx+1].at
	}
	return sh, next
}

// Links lists the table's link names, sorted.
func (t *Table) Links() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.names...)
}

// Apply installs a live shape on the link from `at` onward. Epochs the
// scenario scheduled after `at` still take effect at their time — a
// mutation adjusts the present, not the script's future.
func (t *Table) Apply(link string, at time.Time, sh netem.LinkShape) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.live[link]; !ok {
		return fmt.Errorf("scenario: unknown link %q", link)
	}
	if err := checkShape(link, sh); err != nil {
		return fmt.Errorf("scenario: shape on %s: %w", link, err)
	}
	t.live[link] = insertEpoch(t.live[link], epoch{at: at, shape: sh})
	return nil
}

// Clear reverts the link to its scheduled scenario shape from `at`
// onward, discarding live mutations.
func (t *Table) Clear(link string, at time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sched, ok := t.sched[link]
	if !ok {
		return fmt.Errorf("scenario: unknown link %q", link)
	}
	idx := sort.Search(len(sched), func(i int) bool { return sched[i].at.After(at) }) - 1
	var sh netem.LinkShape
	if idx >= 0 {
		sh = sched[idx].shape
	}
	// Drop live epochs in the past that mutations inserted, then pin the
	// scheduled shape at `at`; future scheduled epochs are re-installed.
	kept := sched[idx+1:]
	es := make([]epoch, 0, len(kept)+1)
	es = append(es, epoch{at: at, shape: sh})
	for _, e := range kept {
		if e.at.After(at) {
			es = append(es, e)
		}
	}
	t.live[link] = es
	return nil
}

// Merge installs another scenario's link phases live, anchored at `at`:
// each declared link's future (from `at` on) is replaced by the new
// script. Links unknown to the table, non-link phases and a preemption
// point are rejected — store, device and lease faults cannot be
// re-scripted mid-run.
func (t *Table) Merge(s *Scenario, at time.Time) error {
	if s.Preempt != 0 {
		return fmt.Errorf("scenario: live load cannot script preemption")
	}
	for _, ph := range s.Phases {
		switch ph.Kind {
		case Clean, Partition, Degrade, Shape:
		default:
			return fmt.Errorf("scenario: live load cannot script %s phases", ph.Kind)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range s.LinkNames() {
		if _, ok := t.live[name]; !ok {
			return fmt.Errorf("scenario: unknown link %q", name)
		}
	}
	fresh := make([][]epoch, len(s.Links))
	for i, decl := range s.Links {
		var err error
		if fresh[i], err = compileLink(s, decl, at); err != nil {
			return err
		}
	}
	for i, decl := range s.Links {
		var es []epoch
		for _, e := range t.live[decl.Name] {
			if e.at.Before(at) {
				es = append(es, e)
			}
		}
		t.live[decl.Name] = append(es, fresh[i]...)
	}
	return nil
}

func insertEpoch(es []epoch, e epoch) []epoch {
	idx := sort.Search(len(es), func(i int) bool { return !es[i].at.Before(e.at) })
	if idx < len(es) && es[idx].at.Equal(e.at) {
		es[idx] = e
		return es
	}
	es = append(es, epoch{})
	copy(es[idx+1:], es[idx:])
	es[idx] = e
	return es
}
