package fed

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
)

// This file is the edge learner every dissemination topology runs on: the
// fleet of workers, the substrates their rounds are billed through, and
// the steps a round takes no matter how its deltas travel — parallel
// local training on one virtual clock, delta export through a codec with
// error feedback, transfers under the fault plan's retry policy, and
// checkpointing the model the cloud serves. The star (Run, in this
// package) adds broadcast, upload, quorum and aggregation on top of it;
// package gossip adds parcels, peer tables and exchanges.

// FleetConfig is the part of a run's configuration every topology shares.
type FleetConfig struct {
	// Workers is the fleet size N.
	Workers int
	// Rounds is how many rounds to run.
	Rounds int
	// LocalEpochs is how many epochs each worker trains per round.
	LocalEpochs int
	// BatchSize for local training.
	BatchSize int
	// Seed drives every random choice in the run: worker compute speeds,
	// local-training shuffles, and the per-run RNG streams.
	Seed int64
	// Compress names the delta compression profile: "none" (raw float64
	// both ways), "fp16" (float32 broadcast, dense float16 uploads), or
	// "topk" (float32 broadcast, top-k sparsified float16 uploads with
	// error feedback). See Profiles.
	Compress string
	// TopKFrac is the fraction of delta entries the "topk" profile keeps
	// per tensor (0 selects the default 0.1).
	TopKFrac float64
	// RoundGap is idle virtual time appended after each round (a fleet
	// checking in on a schedule rather than back to back). It advances
	// fault windows between rounds; 0 runs rounds back to back.
	RoundGap time.Duration
	// PerSampleCost is the simulated edge compute cost per sample per
	// epoch (0 selects 2ms, Pi-class). Each worker also draws a fixed
	// speed factor in [0.7, 1.3] from the run seed, so fleets are
	// heterogeneous and quorum mode has honest stragglers to cut.
	PerSampleCost time.Duration
	// Container and Object name where the served model is checkpointed.
	// Empty Container disables checkpointing.
	Container string
	Object    string
}

// Validate checks the shared fields; name prefixes the errors.
func (c FleetConfig) Validate(name string) error {
	switch {
	case c.Workers < 1:
		return fmt.Errorf("%s: need at least 1 worker", name)
	case c.Rounds < 1:
		return fmt.Errorf("%s: need at least 1 round", name)
	case c.LocalEpochs < 1:
		return fmt.Errorf("%s: need at least 1 local epoch", name)
	case c.BatchSize < 1:
		return fmt.Errorf("%s: batch size must be positive", name)
	case c.RoundGap < 0:
		return fmt.Errorf("%s: negative round gap", name)
	case c.PerSampleCost < 0:
		return fmt.Errorf("%s: negative per-sample cost", name)
	case c.TopKFrac < 0 || c.TopKFrac > 1:
		return fmt.Errorf("%s: top-k fraction must be in [0, 1]", name)
	}
	_, err := NewCodec(c.Compress, c.TopKFrac)
	return err
}

// Deps are the continuum substrates a run composes with. Net and Hub are
// required; the rest are optional (nil Store skips checkpointing, nil
// Plan runs on a fault-free plan of its own).
type Deps struct {
	Net   *netem.Net
	Hub   *edge.Hub
	Store *objstore.Store
	Plan  *faults.Plan
	Obs   obs.Observer
	// Start anchors the fault-free plan's clock when Plan is nil (Plan's
	// own clock is used otherwise). The zero value is faults.Epoch.
	Start time.Time
	// AfterRound, when set, runs at the end of every round inside the
	// round's trace scope — the hook cmd/autolearn uses to hot-reload the
	// serving registry from the fresh checkpoint without fed importing
	// serve. A non-nil error aborts the run.
	AfterRound func(round int, sc obs.SpanContext) error
}

// Worker is one edge learner: its shard, the one trainable pilot it runs
// local epochs on, the weights its round started from, its device on the
// hub, its fixed compute speed, and its error-feedback residual. Base is
// read-only and may be shared: the star hands every live worker the same
// broadcast snapshot, and gossip hands each worker the weights rebuilt
// from its parcel store.
type Worker struct {
	Idx   int          // fleet position; billing and reductions run in this order
	Name  string       // device name (a scripted one when the fault plan names devices)
	Local *pilot.Pilot // trainable clone of the run's pilot, made once and never replaced
	Base  [][]float64  // the round's starting weights, which Local is diffed against

	deviceID string
	params   []*nn.Param // Local's parameters, looked up once
	shard    []pilot.Sample
	speed    float64     // compute speed factor; higher is faster
	residual [][]float64 // error feedback for sparsified uploads
	evicted  bool        // a heartbeat sweep took the device offline this round
}

// Fleet is the topology-independent half of a run: the workers, and the
// network, hub, store, fault plan and observer they are billed through,
// all on one virtual clock.
type Fleet struct {
	Workers []*Worker
	Plan    *faults.Plan
	Clock   *faults.Clock
	Obs     obs.Observer
	Codec   Codec

	name       string // prefixes every span, counter, retry op and device name
	cfg        *FleetConfig
	net        *netem.Net
	hub        *edge.Hub
	store      *objstore.Store
	afterRound func(round int, sc obs.SpanContext) error
}

// NewFleet wires deps onto the fault plan's virtual clock (a fault-free
// plan anchored at deps.Start when deps.Plan is nil), arms the store with
// the plan's object-store faults, and builds one worker per shard, each
// with a clone of proto (the star's global, gossip's genesis) as its
// trainable pilot and a compute speed drawn from cfg.Seed^speedSalt; a
// clone shares no slice with proto or another worker, and a worker has
// no base until its first Start.
// Every worker registers, flashes and boots a BYOD device, whose
// heartbeats the hub then plays on the plan's clock; when the fault plan
// scripts silence windows, the first workers take the scripted device
// names so the plan's schedule lands on real fleet members. An eviction
// marks the worker out (see Out) and clears its residual. name ("fed" or
// "gossip") prefixes everything the fleet emits. cfg must be valid;
// NewFleet fills its zero-valued defaults in place.
func NewFleet(name string, speedSalt int64, cfg *FleetConfig, deps Deps, proto *pilot.Pilot, shards [][]pilot.Sample) (*Fleet, error) {
	if deps.Net == nil {
		return nil, fmt.Errorf("%s: nil network", name)
	}
	if deps.Hub == nil {
		return nil, fmt.Errorf("%s: nil hub", name)
	}
	if len(shards) != cfg.Workers {
		return nil, fmt.Errorf("%s: %d shards for %d workers", name, len(shards), cfg.Workers)
	}
	for i, s := range shards {
		if len(s) == 0 {
			return nil, fmt.Errorf("%s: worker %d has an empty shard", name, i)
		}
	}
	if cfg.PerSampleCost == 0 {
		cfg.PerSampleCost = 2 * time.Millisecond
	}
	if cfg.TopKFrac == 0 {
		cfg.TopKFrac = 0.1
	}
	codec, err := NewCodec(cfg.Compress, cfg.TopKFrac)
	if err != nil {
		return nil, err
	}
	plan := deps.Plan
	if plan == nil {
		start := deps.Start
		if start.IsZero() {
			start = faults.Epoch
		}
		plan = faults.NewPlan(cfg.Seed, start)
	}
	f := &Fleet{
		Plan:       plan,
		Clock:      plan.Clock,
		Obs:        deps.Obs,
		Codec:      codec,
		name:       name,
		cfg:        cfg,
		net:        deps.Net,
		hub:        deps.Hub,
		store:      deps.Store,
		afterRound: deps.AfterRound,
	}
	if deps.Store != nil {
		deps.Store.SetFaultHook(func(op, _, _ string) error { return plan.StoreFault(op) })
	}
	// The run lives entirely in virtual time, so its spans should too:
	// re-clock the tracer onto the run's clock and hand it to every
	// substrate a round's trace flows through. With deterministic span IDs
	// this is what makes two same-seed runs export byte-identical traces.
	if deps.Obs.Tracer != nil {
		deps.Obs.Tracer.SetClock(f.Clock.Now)
		deps.Net.SetTracer(deps.Obs.Tracer)
		deps.Hub.SetTracer(deps.Obs.Tracer)
		if deps.Store != nil {
			deps.Store.SetTracer(deps.Obs.Tracer)
		}
	}

	scripted := plan.ScriptDevices()
	speedRNG := rand.New(rand.NewSource(cfg.Seed ^ speedSalt))
	members := make([]edge.Member, len(shards))
	byDevice := make(map[string]*Worker, len(shards))
	for i := range shards {
		w := &Worker{
			Idx:   i,
			Name:  fmt.Sprintf("%s-worker-%d", name, i),
			shard: shards[i],
			speed: 0.7 + 0.6*speedRNG.Float64(),
		}
		if i < len(scripted) {
			w.Name = scripted[i]
		}
		if w.Local, err = proto.Clone(); err != nil {
			return nil, fmt.Errorf("%s: worker %d pilot: %w", name, i, err)
		}
		w.params = w.Local.Model().Params()
		d, err := deps.Hub.RegisterDevice(w.Name, name+"-fleet")
		if err != nil {
			return nil, err
		}
		if _, err := deps.Hub.FlashImage(d.ID); err != nil {
			return nil, err
		}
		if _, err := deps.Hub.Boot(d.ID); err != nil {
			return nil, err
		}
		w.deviceID = d.ID
		members[i] = edge.Member{Name: w.Name, ID: d.ID}
		byDevice[d.ID] = w
		f.Workers = append(f.Workers, w)
	}
	if container, _ := f.CheckpointAt(); container != "" {
		if err := f.store.CreateContainer(container); err != nil && !errors.Is(err, objstore.ErrExists) {
			return nil, err
		}
	}
	deps.Hub.Play(plan, members, func(id string) {
		if w := byDevice[id]; w != nil {
			w.evicted = true
			w.clearResidual()
		}
	})
	return f, nil
}

// BeginRound forgets the previous round's evictions and parents the hub's
// sweeps under the round's span context sc until the returned func runs.
func (f *Fleet) BeginRound(sc obs.SpanContext) (end func()) {
	for _, w := range f.Workers {
		w.evicted = false
	}
	f.hub.SetTraceScope(sc)
	return func() { f.hub.SetTraceScope(obs.SpanContext{}) }
}

// Out is the one liveness rule: w is out of the round if a sweep evicted
// its device since the round began (a re-onboarding does not undo that)
// or the device is not connected on the hub now.
func (f *Fleet) Out(w *Worker) bool {
	if w.evicted {
		return true
	}
	d, err := f.hub.Device(w.deviceID)
	return err != nil || d.Status != edge.StatusConnected
}

// CheckpointAt names where the fleet's checkpoints land, or two empty
// strings when checkpointing is disabled.
func (f *Fleet) CheckpointAt() (container, object string) {
	if f.store == nil || f.cfg.Container == "" {
		return "", ""
	}
	return f.cfg.Container, f.cfg.Object
}

// Transfer bills size bytes over link under the fault plan's retry
// policy. It returns the total virtual time the operation consumed,
// including backoff waits; the clock has already advanced by it. A
// retryable failure that exhausts the policy budget is reported as
// (elapsed, err) with faults.Retryable(err) true — the caller drops the
// worker or skips the exchange instead of stalling the round. The trace
// context rides along so each WAN attempt (including the retries a fault
// plan injects) emits its own netem_transfer span under the caller's
// stage span.
func (f *Fleet) Transfer(sc obs.SpanContext, op string, size int64, link netem.Link) (time.Duration, error) {
	before := f.Clock.Now()
	err := f.Plan.Do(op, func(int) (time.Duration, error) {
		tr, err := f.net.TransferCtx(sc, link, size)
		if err != nil {
			return 0, err
		}
		return tr.Duration, nil
	})
	return f.Clock.Now().Sub(before), err
}

// Train runs train on every given worker, on min(len(workers), GOMAXPROCS)
// goroutines that take workers in slice order. Each worker's arithmetic
// is self-contained (own model, own seeded RNG streams) and its error
// lands at its own index, so neither scheduling nor the pool size can
// change the result or which error is reported: the first in slice
// order. Afterwards it opens one <name>_local_train span per worker under
// span, in slice order so span IDs and timestamps stay deterministic,
// each carrying the worker's simulated cost: samples x epochs x
// per-sample cost over its speed. The fleet trains in parallel in
// simulated time, so the clock advances once, by the slowest cost,
// letting heartbeat windows and fault schedules progress through the
// round. Train returns the costs by worker index (zero for workers it
// did not train).
func (f *Fleet) Train(span *obs.Span, round int, workers []*Worker, train func(*Worker) error) ([]time.Duration, error) {
	errs := make([]error, len(workers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(workers), runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(workers) {
					return
				}
				errs[i] = train(workers[i])
			}
		}()
	}
	wg.Wait()
	costs := make([]time.Duration, len(f.Workers))
	spans := make([]*obs.Span, len(workers))
	var slowest time.Duration
	for i, w := range workers {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: worker %d round %d: %w", f.name, w.Idx, round, errs[i])
		}
		work := float64(len(w.shard)*f.cfg.LocalEpochs) * float64(f.cfg.PerSampleCost)
		cost := time.Duration(work / w.speed)
		costs[w.Idx] = cost
		slowest = max(slowest, cost)
		spans[i] = span.Child(f.name + "_local_train")
		spans[i].SetAttr("worker", w.Name)
		spans[i].SetAttr("samples", len(w.shard))
		spans[i].SetSimDuration("train", cost)
	}
	f.Clock.Advance(slowest)
	for _, sp := range spans {
		sp.End()
	}
	return costs, nil
}

// SGD runs the worker's local epochs on its trainable pilot, seeded by
// (round, worker) so the result does not depend on scheduling.
func (f *Fleet) SGD(w *Worker, round int) error {
	_, err := w.Local.Train(w.shard, nn.TrainConfig{
		Epochs:    f.cfg.LocalEpochs,
		BatchSize: f.cfg.BatchSize,
		Seed:      f.cfg.Seed + int64(round)*1000 + int64(w.Idx)*7 + 13,
		ClipGrad:  5,
	})
	return err
}

// Export encodes the worker's training delta, (local - base) x scale,
// through the codec with the worker's error feedback. The encoded values
// are what every receiver decodes. One pass over the parameters writes
// every tensor's (local[j] - base[j]) * scale into one backing slice, cut
// into capacity-limited sub-slices that the codec then owns: the same two
// roundings, in the same order, as a subtraction followed by a scaling. A
// base that does not match the parameters in shape, including the nil
// base of a worker that never started a round, is an error.
func (f *Fleet) Export(w *Worker, scale float64) (Encoded, error) {
	if len(w.Base) != len(w.params) {
		return Encoded{}, fmt.Errorf("%s: worker %d: base has %d tensors, model %d", f.name, w.Idx, len(w.Base), len(w.params))
	}
	n := 0
	for i, p := range w.params {
		if len(w.Base[i]) != len(p.W.Data) {
			return Encoded{}, fmt.Errorf("%s: worker %d: base tensor %d has %d values, param %d", f.name, w.Idx, i, len(w.Base[i]), len(p.W.Data))
		}
		n += len(p.W.Data)
	}
	buf := make([]float64, n)
	delta := make([][]float64, len(w.params))
	for i, p := range w.params {
		d, base := buf[:len(p.W.Data):len(p.W.Data)], w.Base[i]
		buf = buf[len(d):]
		for j, v := range p.W.Data {
			d[j] = (v - base[j]) * scale
		}
		delta[i] = d
	}
	return f.Codec.EncodeDelta(delta, w.residualFor(f.Codec, delta)), nil
}

// residualFor returns the worker's error-feedback accumulator for codecs
// that sparsify (allocated to match the delta's shape on first use), or
// nil for codecs that ship everything. An accumulator whose shape no
// longer matches the delta — a checkpoint hot-swap mid-run can resize the
// model under a live worker — is reset rather than returned: its entries
// were accumulated against parameters that no longer exist, and indexing
// it against the new shape would panic.
func (w *Worker) residualFor(c Codec, delta [][]float64) [][]float64 {
	if !c.Sparsifies() {
		return nil
	}
	if !ShapesMatch(w.residual, delta) {
		w.residual = make([][]float64, len(delta))
		for i, t := range delta {
			w.residual[i] = make([]float64, len(t))
		}
	}
	return w.residual
}

// reclaimResidual returns an upload that never made it into the global
// model to the worker's error-feedback accumulator, so a cut straggler's
// round defers the update instead of losing it.
func (w *Worker) reclaimResidual(enc Encoded) {
	if !ShapesMatch(w.residual, enc.Values) {
		return
	}
	for i, t := range enc.Values {
		for j, v := range t {
			w.residual[i][j] += v
		}
	}
}

// clearResidual discards the error-feedback accumulator when a sweep
// evicts the worker or the star drops it from a round: the residual was
// accumulated against weights the fleet has since moved past, and
// replaying it on rejoin would inject stale updates. A fresh accumulator
// is allocated on the next sparsified upload.
func (w *Worker) clearResidual() { w.residual = nil }

// Checkpoint writes model to the object store under the fault plan's
// retry policy, where the serving registry's ETag poll picks it up. Each
// store attempt emits an objstore_put span under a <name>_checkpoint
// span. It is a no-op when checkpointing is disabled.
func (f *Fleet) Checkpoint(round int, parent *obs.Span, model *pilot.Pilot) error {
	container, object := f.CheckpointAt()
	if container == "" {
		return nil
	}
	csp := parent.Child(f.name + "_checkpoint")
	csp.SetAttr("round", round)
	var buf bytes.Buffer
	err := model.Save(&buf)
	if err == nil {
		meta := map[string]string{f.name + "-round": fmt.Sprint(round)}
		err = f.Plan.Do(f.name+"_checkpoint", func(int) (time.Duration, error) {
			_, err := f.store.PutTraced(csp.Context(), container, object, buf.Bytes(), meta)
			return 0, err
		})
	}
	csp.EndErr(err)
	if err != nil {
		return err
	}
	f.Obs.Metrics.Counter(f.name + "_checkpoints_total").Inc()
	return nil
}

// AfterRound runs the deps' after-round hook, when set, inside the
// round's trace scope sc.
func (f *Fleet) AfterRound(round int, sc obs.SpanContext) error {
	if f.afterRound == nil {
		return nil
	}
	if err := f.afterRound(round, sc); err != nil {
		return fmt.Errorf("%s: after-round hook round %d: %w", f.name, round, err)
	}
	return nil
}

// Snapshot copies a pilot's weights into plain slices.
func Snapshot(p *pilot.Pilot) [][]float64 {
	params := p.Model().Params()
	out := make([][]float64, len(params))
	for i, prm := range params {
		out[i] = append([]float64(nil), prm.W.Data...)
	}
	return out
}

// Install copies vals into the weights of every given pilot and zeroes
// their gradients. Each pilot's parameters must match vals in shape.
func Install(vals [][]float64, pilots ...*pilot.Pilot) error {
	for _, p := range pilots {
		if err := install(vals, p.Model().Params()); err != nil {
			return err
		}
	}
	return nil
}

// Start begins the worker's round from base: it copies base into the
// trainable pilot, zeroing its gradients, and keeps base, which it never
// writes, as what Export diffs against. Workers may share one base.
func (w *Worker) Start(base [][]float64) error {
	if err := install(base, w.params); err != nil {
		return err
	}
	w.Base = base
	return nil
}

// install copies vals into params' weights and zeroes their gradients.
func install(vals [][]float64, params []*nn.Param) error {
	if len(params) != len(vals) {
		return fmt.Errorf("fed: install %d tensors into a model with %d", len(vals), len(params))
	}
	for i, prm := range params {
		if len(prm.W.Data) != len(vals[i]) {
			return fmt.Errorf("fed: install tensor %d: %d values into %d weights", i, len(vals[i]), len(prm.W.Data))
		}
		copy(prm.W.Data, vals[i])
		prm.ZeroGrad()
	}
	return nil
}
