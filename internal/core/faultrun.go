package core

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/pilot"
	"repro/internal/testbed"
)

// This file wires the fault plan through the pipeline: the WAN and the
// object store go through the plan's retry policy, a scripted device
// fleet plays heartbeats (and scheduled silences) into the edge hub as
// virtual time passes, and training survives a lease preemption by
// resuming from its per-epoch checkpoint.

// EnableFaults swaps a scenario's fault plan in for the fault-free one:
// the tracer moves onto its clock, the object store injects its
// transient errors, and the plan's scripted devices (none for scenarios
// without silence phases) are onboarded into the edge hub with heartbeat
// playback driven by the plan's clock. Link faults reach the module's
// network through the scenario runtime that built the plan
// (scenario.Runtime.Attach). Call it once, before running stages.
func (p *Pipeline) EnableFaults(plan *faults.Plan) error {
	if plan == nil {
		return fmt.Errorf("core: nil fault plan")
	}
	if p.scripted {
		return fmt.Errorf("core: pipeline already has a fault plan")
	}
	p.scripted = true
	p.Faults = plan
	p.Obs.Tracer.SetClock(plan.Clock.Now)
	p.M.Store.SetFaultHook(func(op, _, _ string) error { return plan.StoreFault(op) })
	var members []edge.Member
	for _, name := range plan.ScriptDevices() {
		d, err := p.M.Edge.RegisterDevice(name, "faults-plan")
		if err != nil {
			return err
		}
		if _, err := p.M.Edge.FlashImage(d.ID); err != nil {
			return err
		}
		if _, err := p.M.Edge.Boot(d.ID); err != nil {
			return err
		}
		members = append(members, edge.Member{Name: name, ID: d.ID})
	}
	p.M.Edge.Play(plan, members, nil)
	return nil
}

// wanTransfer is Net.Transfer under the retry policy: partitions turn
// into retryable errors, backoff burns virtual time until the link heals,
// and the successful attempt's duration lands on the clock.
func (p *Pipeline) wanTransfer(size int64) (netem.TransferResult, error) {
	var out netem.TransferResult
	err := p.Faults.Do("wan_transfer", func(int) (time.Duration, error) {
		tr, err := p.M.Net.Transfer(p.WANLink, size)
		if err != nil {
			return 0, err
		}
		out = tr
		return tr.Duration, nil
	})
	return out, err
}

// storeGet is Store.Get under the retry policy (injected transient errors
// retry; real errors like a missing object return immediately).
func (p *Pipeline) storeGet(container, name string) ([]byte, error) {
	var data []byte
	err := p.Faults.Do("objstore_get", func(int) (time.Duration, error) {
		d, _, err := p.M.Store.Get(container, name)
		if err != nil {
			return 0, err
		}
		data = d
		return 0, nil
	})
	return data, err
}

// storePut is Store.Put under the retry policy.
func (p *Pipeline) storePut(container, name string, data []byte, meta map[string]string) error {
	return p.Faults.Do("objstore_put", func(int) (time.Duration, error) {
		_, err := p.M.Store.Put(container, name, data, meta)
		return 0, err
	})
}

// controlLatency is PlacementModel.ControlLatency under the retry policy:
// the cloud placement's RTT probe can hit a partition.
func (p *Pipeline) controlLatency(pm PlacementModel, place Placement, paramCount int) (time.Duration, error) {
	var lat time.Duration
	err := p.Faults.Do("control_latency", func(int) (time.Duration, error) {
		l, err := pm.ControlLatency(place, paramCount)
		if err != nil {
			return 0, err
		}
		lat = l
		return 0, nil
	})
	return lat, err
}

// runTraining trains pl, surviving a scheduled lease preemption: each
// epoch checkpoints the model, and when the plan's preemption fraction of
// the simulated GPU time has elapsed the trainer aborts, the operator
// yanks the node, and training resumes from the checkpoint on a freshly
// reserved node. Returns the merged history and the pilot that finished
// training (the resumed copy, if preempted). res.Lease/Instance are
// updated to the replacement node on preemption.
func (p *Pipeline) runTraining(pl *pilot.Pilot, samples []pilot.Sample, cfg nn.TrainConfig,
	res *TrainResult, start time.Time) (nn.History, *pilot.Pilot, error) {
	plan := p.Faults
	if plan.PreemptAfterFrac <= 0 || cfg.Epochs < 2 {
		hist, err := pl.Train(samples, cfg)
		return hist, pl, err
	}

	job := testbed.TrainingJob{
		Samples: len(samples), ParamCount: pl.ParamCount(), Epochs: 1, BatchSize: cfg.BatchSize,
	}
	perEpoch, err := res.Instance.TrainingTime(job)
	if err != nil {
		return nn.History{}, nil, err
	}
	// Abort after the epoch that crosses the preemption fraction, but
	// always mid-run: at least one epoch done, at least one left.
	preemptAfter := int(plan.PreemptAfterFrac * float64(cfg.Epochs))
	if preemptAfter < 1 {
		preemptAfter = 1
	}
	if preemptAfter > cfg.Epochs-1 {
		preemptAfter = cfg.Epochs - 1
	}

	var ckpt bytes.Buffer
	done := 0
	cfg1 := cfg
	prev := cfg.EpochObserver
	cfg1.EpochObserver = func(stats nn.EpochStats, dur time.Duration) {
		done = stats.Epoch + 1
		ckpt.Reset()
		_ = pl.Save(&ckpt)
		if prev != nil {
			prev(stats, dur)
		}
	}
	cfg1.Abort = func() bool { return done >= preemptAfter }

	hist, err := pl.Train(samples, cfg1)
	if err != nil {
		return hist, nil, err
	}
	if !hist.Aborted {
		// Early stopping beat the preemption to it; nothing to resume.
		plan.Clock.Advance(time.Duration(done) * perEpoch)
		return hist, pl, nil
	}

	// The node dies mid-training: bill the GPU time burned so far, count
	// the injection, and yank the lease (the node goes into maintenance).
	plan.Clock.Advance(time.Duration(done) * perEpoch)
	plan.RecordInjection("preemption")
	if err := p.M.Testbed.PreemptLease(res.Lease.ID); err != nil {
		return hist, nil, err
	}

	// Re-reserve the same SKU (the dead node is in maintenance, so the
	// scheduler picks a sibling), redeploy, and resume from the checkpoint.
	now := plan.Clock.Now()
	lease, err := p.Student.Reserve(testbed.NodeFilter{GPU: res.GPU}, now, now.Add(4*time.Hour))
	if err != nil {
		return hist, nil, fmt.Errorf("core: re-reserve after preemption: %w", err)
	}
	inst, err := p.Student.Deploy(lease.ID, res.Instance.Image, now)
	if err != nil {
		return hist, nil, fmt.Errorf("core: redeploy after preemption: %w", err)
	}
	res.Lease, res.Instance = lease, inst
	plan.Clock.Advance(inst.ReadyAt.Sub(now))

	resumed, err := pilot.Load(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		return hist, nil, fmt.Errorf("core: checkpoint resume: %w", err)
	}
	cfg2 := cfg
	cfg2.Epochs = cfg.Epochs - done
	offset := done
	cfg2.EpochObserver = func(stats nn.EpochStats, dur time.Duration) {
		if prev != nil {
			stats.Epoch += offset
			prev(stats, dur)
		}
	}
	hist2, err := resumed.Train(samples, cfg2)
	if err != nil {
		return hist, nil, err
	}
	perEpoch2, err := inst.TrainingTime(job)
	if err != nil {
		return hist, nil, err
	}
	plan.Clock.Advance(time.Duration(len(hist2.Epochs)) * perEpoch2)

	// Merge the two halves into one run history.
	merged := hist
	merged.Aborted = false
	merged.Stopped = hist2.Stopped
	merged.WallTime += hist2.WallTime
	merged.SamplesSeen += hist2.SamplesSeen
	merged.BestValLoss = hist.BestValLoss
	merged.BestEpoch = hist.BestEpoch
	for _, st := range hist2.Epochs {
		st.Epoch += offset
		merged.Epochs = append(merged.Epochs, st)
		if st.ValLoss < merged.BestValLoss {
			merged.BestValLoss = st.ValLoss
			merged.BestEpoch = st.Epoch
		}
	}
	return merged, resumed, nil
}
