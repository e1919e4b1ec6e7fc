package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/testbed"
	"repro/internal/tub"
)

// The pipeline workload is `autolearn pipeline` as shipped: one op is a
// collect→clean→train→evaluate loop on a freshly constructed module.
const (
	pipelineTicks     = 1000
	pipelineEvalTicks = 600
	// pipelineSetups is how many constructions are timed before the ops;
	// one takes about a millisecond, so a single timing is mostly noise,
	// and a few hundred still cost well under a second.
	pipelineSetups = 300
)

var pipelineTrain = nn.TrainConfig{Epochs: 5, BatchSize: 32, ValFrac: 0.15, Seed: 2, ClipGrad: 5}

type pipelineBench struct {
	cfg  core.Config
	work string
	// lastTub keeps the traced window's final tub for the nn probe.
	lastTub string
	loopVal float64
}

// newPipelineBench's only input is the module seed: the loop drives and
// records its own data, which is part of what the op measures.
func newPipelineBench(seed int64, work string) (bench, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return &pipelineBench{cfg: cfg, work: work}, nil
}

// construct builds the module, enrolls the student and opens a pipeline
// in dir, returning the construction's wall time.
func (b *pipelineBench) construct(dir string, reg *obs.Registry) (*core.Module, *core.Pipeline, time.Duration, error) {
	t0 := time.Now()
	m, err := core.New(b.cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if reg != nil {
		m.Instrument(obs.Observer{Metrics: reg})
	}
	student, err := m.Enroll("bench-student", "local")
	if err != nil {
		return nil, nil, 0, err
	}
	p, err := m.NewPipeline(student, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	return m, p, time.Since(t0), nil
}

// loopOut is what one loop produced, compared across loops.
type loopOut struct {
	records, marked, laps, epochs, samples int
	valLoss                                float64
	gpu, wan                               time.Duration
}

func (b *pipelineBench) loop(e env, m *core.Module, p *core.Pipeline, op int) (loopOut, error) {
	var out loopOut
	root := e.rec.begin("pipeline.op", -1, op)
	defer e.rec.end(root)

	sp := e.rec.begin("core.collect", root, op)
	col, err := p.CollectData(core.Simulator, "drive", pipelineTicks)
	e.rec.end(sp)
	if err != nil {
		return out, fmt.Errorf("collect: %w", err)
	}
	sp = e.rec.begin("core.clean", root, op)
	marked, _, err := p.CleanData(col.TubDir)
	e.rec.end(sp)
	if err != nil {
		return out, fmt.Errorf("clean: %w", err)
	}
	sp = e.rec.begin("core.train", root, op)
	tc := pipelineTrain
	if e.rec != nil {
		tc.EpochObserver = func(_ nn.EpochStats, d time.Duration) {
			now := time.Now()
			e.rec.add("nn.epoch", now.Add(-d), now, sp, op)
		}
	}
	tr, err := p.Train(col.TubDir, pilot.Inferred, testbed.RTX6000, tc, epoch)
	e.rec.end(sp)
	if err != nil {
		return out, fmt.Errorf("train: %w", err)
	}
	sp = e.rec.begin("core.evaluate", root, op)
	ev, err := p.Evaluate(tr.ModelObject, core.EdgePlacement, core.DefaultPlacementModel(m.Net), pipelineEvalTicks)
	e.rec.end(sp)
	if err != nil {
		return out, fmt.Errorf("evaluate: %w", err)
	}
	return loopOut{
		records: col.Records, marked: marked, laps: ev.Report.Laps,
		epochs: len(tr.History.Epochs), samples: tr.History.SamplesSeen,
		valLoss: tr.History.BestValLoss,
		gpu:     tr.SimGPUTime, wan: col.Transfer + tr.Transfer + ev.Download,
	}, nil
}

func (b *pipelineBench) timed(e env) (*result, error) {
	res := &result{}
	for i := 0; i < pipelineSetups; i++ {
		_, _, d, err := b.construct(b.work, nil)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d)
	}
	var first *loopOut
	var sum loopOut
	begin := time.Now()
	for op := 0; op == 0 || time.Since(begin) < e.seconds; op++ {
		dir := filepath.Join(b.work, fmt.Sprintf("loop-%d", op))
		m, p, d, err := b.construct(dir, e.reg)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d)
		// Each loop is its own stretch; the previous loop's garbage is
		// collected before it, outside the timing.
		mt := startMeter(e.rec != nil)
		out, err := b.loop(e, m, p, op)
		st := mt.stop(res)
		st.attempted = 1
		res.attempted++
		failed := res.failed
		switch {
		case err != nil:
			res.failed++
			res.fail("loop %d: %v", op, err)
		case first == nil:
			first = &out
		case out.valLoss != first.valLoss || out.laps != first.laps:
			res.failed++
			res.fail("loop %d: val_loss %v laps %d, loop 0 had %v and %d",
				op, out.valLoss, out.laps, first.valLoss, first.laps)
		}
		if st.failed = res.failed - failed; st.failed == 0 {
			st.ops = []time.Duration{st.wall}
		}
		res.stretches = append(res.stretches, st)
		if err == nil {
			res.ops = append(res.ops, st.wall)
			sum = addLoop(sum, out)
		}
		if e.rec != nil {
			b.lastTub = filepath.Join(dir, "drive")
		} else if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if first == nil {
		return res, nil
	}
	b.loopVal = first.valLoss
	if e.rec == nil {
		return res, nil
	}
	n := float64(len(res.ops))
	dur, self, count := e.rec.totals()
	per := func(name string) float64 { return msf(dur[name]) / n }
	res.layer = map[string]float64{
		"val_loss":         first.valLoss,
		"core.collect_ms":  per("core.collect"),
		"core.clean_ms":    per("core.clean"),
		"core.train_ms":    per("core.train"),
		"core.evaluate_ms": per("core.evaluate"),
		"core.train_io_ms": msf(self["core.train"]) / n,
		"nn.epoch_ms":      msf(dur["nn.epoch"]) / float64(max(count["nn.epoch"], 1)),
		"nn.epochs":        float64(sum.epochs) / n,
		"nn.samples":       float64(sum.samples) / n,
		"tub.records":      float64(sum.records) / n,
		"tub.marked":       float64(sum.marked) / n,
		"eval.laps":        float64(sum.laps) / n,
		"testbed.gpu_s":    sum.gpu.Seconds() / n,
		"netem.wan_s":      sum.wan.Seconds() / n,
		"netem.wan_bytes":  counterSum(e.reg, "netem_transfer_bytes_total") / n,
	}
	return res, nil
}

func addLoop(a, b loopOut) loopOut {
	a.records += b.records
	a.marked += b.marked
	a.laps += b.laps
	a.epochs += b.epochs
	a.samples += b.samples
	a.gpu += b.gpu
	a.wan += b.wan
	return a
}

// probe re-trains the loop's pilot on the last traced loop's cleaned tub
// through nn.Train with timing wrappers on the model, loss and optimizer,
// the way Pilot.Train builds its run. The wrappers must not change the
// arithmetic: the probe's best val loss has to equal the loop's.
func (b *pipelineBench) probe(e env, res *result) error {
	if b.lastTub == "" {
		return fmt.Errorf("no traced loop left a tub")
	}
	t, err := tub.Open(b.lastTub)
	if err != nil {
		return err
	}
	m, err := core.New(b.cfg)
	if err != nil {
		return err
	}
	pcfg := m.DefaultPilotConfig(pilot.Inferred)
	pl, err := pilot.New(pcfg)
	if err != nil {
		return err
	}
	samples, err := pilot.SamplesFromTub(pcfg, t)
	if err != nil {
		return err
	}
	data, err := pcfg.BuildDataset(samples)
	if err != nil {
		return err
	}
	opt, err := nn.NewAdam(1e-3)
	if err != nil {
		return err
	}
	tm := &timedModel{inner: pl.Model()}
	tl := &timedLoss{inner: pl.Loss(), model: tm}
	to := &timedOpt{inner: opt}
	hist, err := nn.Train(tm, data, tl, to, pipelineTrain)
	if err != nil {
		return err
	}
	if hist.BestValLoss != b.loopVal {
		res.fail("nn probe best val loss %v, the loop's was %v", hist.BestValLoss, b.loopVal)
	}
	epochs := float64(max(len(hist.Epochs), 1))
	res.layer["nn.forward_ms"] = msf(tm.forward) / epochs
	res.layer["nn.backward_ms"] = msf(tm.backward) / epochs
	res.layer["nn.optim_ms"] = msf(to.step) / epochs
	res.layer["nn.loss_ms"] = msf(tl.train) / epochs
	res.layer["nn.val_ms"] = msf(tm.val+tl.val) / epochs
	return nil
}

// timedModel times nn.Model calls. Forward with train=false is the
// per-epoch validation pass, kept apart from training forwards.
type timedModel struct {
	inner                  nn.Model
	forward, backward, val time.Duration
	lastTrain              bool
}

func (m *timedModel) Forward(x *nn.Tensor, train bool) (*nn.Tensor, error) {
	t0 := time.Now()
	y, err := m.inner.Forward(x, train)
	if d := time.Since(t0); train {
		m.forward += d
	} else {
		m.val += d
	}
	m.lastTrain = train
	return y, err
}

func (m *timedModel) Backward(grad *nn.Tensor) error {
	t0 := time.Now()
	err := m.inner.Backward(grad)
	m.backward += time.Since(t0)
	return err
}

func (m *timedModel) Params() []*nn.Param { return m.inner.Params() }

// timedLoss charges each loss call to training or validation by the mode
// of the forward pass it follows.
type timedLoss struct {
	inner      nn.Loss
	model      *timedModel
	train, val time.Duration
}

func (l *timedLoss) Loss(pred, target *nn.Tensor) (float64, *nn.Tensor, error) {
	t0 := time.Now()
	v, g, err := l.inner.Loss(pred, target)
	if d := time.Since(t0); l.model.lastTrain {
		l.train += d
	} else {
		l.val += d
	}
	return v, g, err
}

func (l *timedLoss) Name() string { return l.inner.Name() }

type timedOpt struct {
	inner nn.Optimizer
	step  time.Duration
}

func (o *timedOpt) Step(params []*nn.Param) error {
	t0 := time.Now()
	err := o.inner.Step(params)
	o.step += time.Since(t0)
	return err
}

func (o *timedOpt) Name() string { return o.inner.Name() }

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// counterSum adds every series of a counter family (all label sets).
func counterSum(reg *obs.Registry, name string) float64 {
	var total float64
	for k, v := range reg.Snapshot().Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
