package scenario

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/obs"
)

// Event is one phase transition, for the netctl event stream.
type Event struct {
	At     time.Time `json:"at"`
	Phase  int       `json:"phase"` // 1-based index in the scenario
	Kind   string    `json:"kind"`
	Target string    `json:"target"`
	Window string    `json:"window"`
}

// Runtime binds a parsed scenario to one run: a fault plan (objstore
// windows, device silences, the preemption point, the retry policy and
// virtual clock) plus the compiled link-shape table, and a phase
// scheduler that rides the clock's event loop emitting one
// scenario_phase span and one scenario_transitions_total increment per
// transition. The same scenario, seed, and epoch always produce the same
// runtime, so two runs replay byte-identically.
type Runtime struct {
	scn   *Scenario
	epoch time.Time
	seed  int64
	plan  *faults.Plan
	table *Table

	mu          sync.Mutex
	o           obs.Observer
	root        *obs.Span
	started     bool
	transitions int
	onEvent     func(Event)
}

// NewRuntime builds the plan and table for one run starting at epoch.
// A non-zero seed in the file pins the run (replayable by construction);
// otherwise the caller's seed governs.
func NewRuntime(s *Scenario, seed int64, epoch time.Time) (*Runtime, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Seed != 0 {
		seed = s.Seed
	}
	table, err := NewTable(s, epoch)
	if err != nil {
		return nil, err
	}
	plan := faults.NewPlan(seed, epoch)
	plan.PreemptAfterFrac = s.Preempt
	for _, ph := range s.Phases {
		switch ph.Kind {
		case Objstore:
			plan.AddStoreWindows(ph.Every, ph.Window(epoch))
		case Silence:
			plan.AddSilenceWindow(ph.Device, ph.Window(epoch))
		}
	}
	return &Runtime{
		scn:   s,
		epoch: epoch,
		seed:  seed,
		plan:  plan,
		table: table,
	}, nil
}

// Scenario returns the parsed scenario driving this run.
func (rt *Runtime) Scenario() *Scenario { return rt.scn }

// Plan is the run's fault plan (clock, retries, store and silence
// windows, preemption); hand it wherever a faults.Plan goes.
func (rt *Runtime) Plan() *faults.Plan { return rt.plan }

// Table is the live link-shape timeline; it implements netem.Shaper and
// is what netctl mutates.
func (rt *Runtime) Table() *Table { return rt.table }

// Clock is the run's virtual clock.
func (rt *Runtime) Clock() *faults.Clock { return rt.plan.Clock }

// Seed is the effective seed after the file's pin.
func (rt *Runtime) Seed() int64 { return rt.seed }

// Attach points a netem fabric at this run: link shapes come from the
// table, indexed by the run's virtual clock, and partition refusals
// count as link_partition injections on the plan.
func (rt *Runtime) Attach(n *netem.Net) {
	n.SetFaults(rt.plan)
	n.SetShaper(rt.table, rt.plan.Clock.Now)
}

// SetEventHook registers a callback fired on every phase transition (the
// netctl SSE stream). Call before Start.
func (rt *Runtime) SetEventHook(fn func(Event)) {
	rt.mu.Lock()
	rt.onEvent = fn
	rt.mu.Unlock()
}

// Start opens the root scenario span, re-clocks the tracer to virtual
// time (so exported traces are byte-identical across same-seed runs),
// and schedules one timer per phase start on the clock's event loop.
// Call once, before advancing the clock; pair with Finish.
func (rt *Runtime) Start(o obs.Observer) {
	rt.mu.Lock()
	if rt.started {
		rt.mu.Unlock()
		return
	}
	rt.started = true
	rt.o = o
	rt.mu.Unlock()

	o.Tracer.SetClock(rt.plan.Clock.Now)
	o.Metrics.Help("scenario_transitions_total", "scenario phase transitions fired, by effect kind")
	o.Metrics.Help("scenario_phases", "phases declared by the loaded scenario")
	o.Metrics.Counter("scenario_transitions_total")
	o.Metrics.Gauge("scenario_phases").Set(float64(len(rt.scn.Phases)))
	rt.plan.Instrument(o.Metrics)

	root := o.Tracer.Start("scenario")
	root.SetAttr("name", rt.scn.Name)
	root.SetAttr("phases", len(rt.scn.Phases))
	root.SetAttr("seed", rt.seed)
	rt.mu.Lock()
	rt.root = root
	rt.mu.Unlock()

	for i, ph := range rt.scn.Phases {
		i, ph := i, ph
		rt.plan.Clock.Schedule(rt.epoch.Add(ph.Start), func(now time.Time) {
			rt.fire(i, ph, now)
		})
	}
}

func (rt *Runtime) fire(i int, ph Phase, now time.Time) {
	rt.mu.Lock()
	root, o, hook := rt.root, rt.o, rt.onEvent
	rt.transitions++
	rt.mu.Unlock()

	window := ph.Start.String() + ".." + ph.End.String()
	sp := root.Child("scenario_phase")
	sp.SetAttr("phase", i+1)
	sp.SetAttr("kind", ph.Kind)
	sp.SetAttr("target", ph.Target())
	sp.SetAttr("window", window)
	sp.SetSimDuration("phase", ph.End-ph.Start)
	sp.End()
	o.Metrics.Counter("scenario_transitions_total").Inc()
	o.Metrics.Counter("scenario_transitions_total", obs.L("kind", ph.Kind)).Inc()
	if hook != nil {
		hook(Event{At: now, Phase: i + 1, Kind: ph.Kind, Target: ph.Target(), Window: window})
	}
}

// Transitions reports how many phase starts have fired so far.
func (rt *Runtime) Transitions() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.transitions
}

// Finish closes the root span (keeping the exported trace orphan-free)
// and reports the run's transition tally.
func (rt *Runtime) Finish() int {
	rt.mu.Lock()
	root := rt.root
	rt.root = nil
	n := rt.transitions
	rt.mu.Unlock()
	if root != nil {
		root.SetAttr("transitions", n)
		root.End()
	}
	return n
}

// Describe is a one-line human summary for CLI banners.
func (rt *Runtime) Describe() string {
	name := rt.scn.Name
	if name == "" {
		name = "(unnamed)"
	}
	out := fmt.Sprintf("scenario %s: %d links, %d phases over %s (seed %d)",
		name, len(rt.scn.Links), len(rt.scn.Phases), rt.scn.Horizon(), rt.seed)
	if rt.scn.Preempt != 0 {
		out += fmt.Sprintf(", preempt at %.2f of GPU time", rt.scn.Preempt)
	}
	return out
}
