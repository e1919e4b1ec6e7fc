package core

import (
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/testbed"
)

// This file is the pipeline's observability surface: the public stage
// methods wrap the unexported implementations in pipeline.go with one
// span per Fig. 1 stage (collect, clean, train, evaluate), all children
// of a "pipeline" root span, and export stage metrics into the module's
// registry. Spans run on the fault plan's virtual clock, so they carry
// modelled time and same-seed traces are byte-identical; the
// autolearn_stage_seconds histogram times each stage on the wall clock.
// An uninstrumented module (the default) pays one nil check per stage.

// Instrument wires the module's subsystems — network, edge hub, testbed
// — into the observer's metrics registry and stores the observer so
// pipelines created afterwards emit stage spans into its tracer.
func (m *Module) Instrument(o obs.Observer) {
	m.Obs = o
	m.Net.Instrument(o.Metrics)
	m.Edge.Instrument(o.Metrics)
	m.Testbed.Instrument(o.Metrics)
	o.Metrics.Help("autolearn_train_epoch_seconds", "wall-clock duration of each real training epoch")
	o.Metrics.Help("autolearn_stage_seconds", "wall-clock duration of each pipeline stage")
	o.Metrics.Help("autolearn_records_collected_total", "tub records captured during data collection")
	o.Metrics.Help("autolearn_records_cleaned_total", "records marked bad by tubclean")
}

// stageSpan opens the span for one pipeline stage, creating the root
// "pipeline" span on first use. Returns nil (a no-op span) when the
// pipeline is uninstrumented.
func (p *Pipeline) stageSpan(name string) *obs.Span {
	if p.Obs.Tracer == nil {
		return nil
	}
	if p.root == nil {
		p.root = p.Obs.Tracer.Start("pipeline")
		p.root.SetAttr("student", p.Student.User().Name)
		p.root.SetAttr("pathway", string(p.M.Cfg.Pathway))
		p.root.SetAttr("track", p.M.Cfg.Track)
	}
	return p.root.Child(name)
}

// endStage closes a stage span and records the stage's wall-clock
// duration since wall, the instant it opened. The span itself runs on
// the plan's virtual clock and carries the stage's modelled time.
func (p *Pipeline) endStage(sp *obs.Span, name string, wall time.Time, err error) {
	if sp == nil {
		return
	}
	sp.EndErr(err)
	p.Obs.Metrics.Histogram("autolearn_stage_seconds", obs.DefSecondsBuckets,
		obs.L("stage", name)).ObserveDuration(time.Since(wall))
}

// EndTrace closes the pipeline's root span. Call it after the last stage
// (before exporting the trace); it is a no-op when uninstrumented or
// already ended.
func (p *Pipeline) EndTrace() {
	if p.root != nil {
		p.root.End()
		p.root = nil
	}
}

// CollectData runs one of the three Fig. 2 collection paths, leaving a tub
// in the pipeline's work directory.
func (p *Pipeline) CollectData(path CollectionPath, name string, ticks int) (CollectResult, error) {
	sp, wall := p.stageSpan("collect"), time.Now()
	sp.SetAttr("path", string(path))
	out, err := p.collectData(path, name, ticks)
	sp.SetAttr("records", out.Records)
	sp.SetAttr("bad", out.Bad)
	sp.SetAttr("laps", out.Laps)
	sp.SetAttr("crashes", out.Crashes)
	sp.SetSimDuration("drive", out.Drive)
	sp.SetSimDuration("transfer", out.Transfer)
	p.Obs.Metrics.Counter("autolearn_records_collected_total").Add(float64(out.Records))
	p.endStage(sp, "collect", wall, err)
	return out, err
}

// CleanData runs tubclean's automatic detector over a collected tub
// (the manual video review is available through the tub package directly).
func (p *Pipeline) CleanData(tubDir string) (marked, remaining int, err error) {
	sp, wall := p.stageSpan("clean"), time.Now()
	marked, remaining, err = p.cleanData(tubDir)
	sp.SetAttr("marked", marked)
	sp.SetAttr("remaining", remaining)
	p.Obs.Metrics.Counter("autolearn_records_cleaned_total").Add(float64(marked))
	p.endStage(sp, "clean", wall, err)
	return marked, remaining, err
}

// Train reserves a GPU node, deploys the CUDA appliance, transfers the
// cleaned tub, trains the requested pilot, and publishes the checkpoint to
// the object store (§3.3 "Model training").
func (p *Pipeline) Train(tubDir string, kind pilot.Kind, gpu testbed.GPUType,
	trainCfg nn.TrainConfig, start time.Time) (TrainResult, error) {
	sp, wall := p.stageSpan("train"), time.Now()
	sp.SetAttr("pilot", string(kind))
	sp.SetAttr("gpu", string(gpu))

	// Export per-epoch loss and wall time through the trainer's observer
	// hook, chaining any hook the caller installed.
	epochHist := p.Obs.Metrics.Histogram("autolearn_train_epoch_seconds",
		obs.DefSecondsBuckets, obs.L("pilot", string(kind)))
	prev := trainCfg.EpochObserver
	trainCfg.EpochObserver = func(stats nn.EpochStats, dur time.Duration) {
		epochHist.ObserveDuration(dur)
		sp.SetAttr("epochs_done", stats.Epoch+1)
		if prev != nil {
			prev(stats, dur)
		}
	}

	out, err := p.train(tubDir, kind, gpu, trainCfg, start)
	if out.Lease != nil {
		sp.SetAttr("node", out.Lease.NodeID)
	}
	sp.SetAttr("epochs", len(out.History.Epochs))
	sp.SetAttr("best_val_loss", out.History.BestValLoss)
	sp.SetAttr("samples_seen", out.History.SamplesSeen)
	sp.SetAttr("params", out.History.ParamCount)
	sp.SetAttr("model_bytes", out.ModelBytes)
	sp.SetSimDuration("provision", out.Provision)
	sp.SetSimDuration("transfer", out.Transfer)
	sp.SetSimDuration("gpu_train", out.SimGPUTime)
	p.endStage(sp, "train", wall, err)
	return out, err
}

// Evaluate downloads a trained model from the object store onto the car
// and drives autonomously under the chosen inference placement, whose
// control-loop latency is injected into the simulation as command delay.
func (p *Pipeline) Evaluate(modelObject string, placement Placement, pm PlacementModel, ticks int) (EvalResult, error) {
	sp, wall := p.stageSpan("evaluate"), time.Now()
	sp.SetAttr("placement", string(placement))
	out, err := p.evaluate(modelObject, placement, pm, ticks)
	sp.SetAttr("delay_ticks", out.DelayTicks)
	sp.SetAttr("laps", out.Report.Laps)
	sp.SetAttr("crashes", out.Report.Crashes)
	sp.SetAttr("mean_speed", out.Report.MeanSpeed)
	sp.SetSimDuration("latency", out.Latency)
	sp.SetSimDuration("download", out.Download)
	p.endStage(sp, "evaluate", wall, err)
	return out, err
}
