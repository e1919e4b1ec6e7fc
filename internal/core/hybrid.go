package core

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/eval"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// bytesNewReader and timeUnix keep the long function below readable.
func bytesNewReader(b []byte) io.Reader { return bytes.NewReader(b) }
func timeUnix(sec int64) time.Time      { return time.Unix(sec, 0) }

// HybridDriver is the working hybrid edge-cloud inference runtime the
// placement model prices: a small distilled student closes the 20 Hz
// control loop on the car while the full teacher runs "in the cloud" and
// its commands arrive CloudDelayTicks later. Fresh-enough cloud commands
// are blended into the student's output; stale ones are discarded. This
// trades the student's fidelity loss against the WAN-induced staleness —
// exactly the dial the §3.3 extension asks students to explore.
type HybridDriver struct {
	Student *pilot.AutoDriver
	Teacher *pilot.AutoDriver

	// CloudDelayTicks is the round-trip latency in control ticks.
	CloudDelayTicks int
	// BlendWeight is how much a fresh cloud command pulls the output
	// toward the teacher (0 = ignore cloud, 1 = replace).
	BlendWeight float64
	// MaxStaleTicks beyond which a cloud command is discarded.
	MaxStaleTicks int

	// CloudRPC, when non-nil, is consulted every frame in place of the
	// fixed CloudDelayTicks: it performs the frame's cloud round trip and
	// returns the delivery delay in ticks. An error (link outage) or a
	// delay beyond MaxStaleTicks means the cloud missed its deadline: the
	// frame is served by the on-device student alone and counted as a
	// fallback. This is the graceful-degradation half of the §3.3
	// trade-off: the car keeps driving on the pilot when the WAN does not.
	CloudRPC func(tick int) (delayTicks int, err error)
	// OnFallback is invoked once per fallback frame (metrics hook).
	OnFallback func()
	// Fallbacks counts frames served without the cloud.
	Fallbacks int

	pending []cloudCmd
	tick    int
}

type cloudCmd struct {
	readyAt  int
	angle    float64
	throttle float64
}

// NewHybridDriver wires a student and teacher.
func NewHybridDriver(student, teacher *pilot.AutoDriver, cloudDelayTicks int, blend float64) (*HybridDriver, error) {
	if student == nil || teacher == nil {
		return nil, fmt.Errorf("core: hybrid needs student and teacher")
	}
	if cloudDelayTicks < 0 {
		return nil, fmt.Errorf("core: negative cloud delay")
	}
	if blend < 0 || blend > 1 {
		return nil, fmt.Errorf("core: blend weight must be in [0,1]")
	}
	return &HybridDriver{
		Student:         student,
		Teacher:         teacher,
		CloudDelayTicks: cloudDelayTicks,
		BlendWeight:     blend,
		MaxStaleTicks:   cloudDelayTicks + 3,
	}, nil
}

// DriveFrame implements sim.FrameDriver: the student answers now; the
// frame is also "sent to the cloud", whose answer lands CloudDelayTicks
// later and is blended when it arrives fresh.
func (h *HybridDriver) DriveFrame(f *sim.Frame, st sim.CarState) (float64, float64) {
	sAngle, sThrottle := h.Student.DriveFrame(f, st)

	// Ship the frame to the cloud: compute the teacher's answer now but
	// deliver it later (the teacher sees the frame as of send time). With a
	// live CloudRPC, a failed or too-slow round trip drops the frame from
	// the cloud path entirely — the student's answer stands alone.
	delay, cloudUp := h.CloudDelayTicks, true
	if h.CloudRPC != nil {
		d, err := h.CloudRPC(h.tick)
		if err != nil || d > h.MaxStaleTicks {
			cloudUp = false
			h.Fallbacks++
			if h.OnFallback != nil {
				h.OnFallback()
			}
		} else {
			delay = d
		}
	}
	if cloudUp {
		tAngle, tThrottle := h.Teacher.DriveFrame(f, st)
		h.pending = append(h.pending, cloudCmd{
			readyAt: h.tick + delay, angle: tAngle, throttle: tThrottle,
		})
	}

	// Consume the freshest arrived command.
	var latest *cloudCmd
	kept := h.pending[:0]
	for i := range h.pending {
		c := h.pending[i]
		switch {
		case c.readyAt > h.tick:
			kept = append(kept, c)
		case h.tick-c.readyAt <= h.MaxStaleTicks:
			cc := c
			latest = &cc
		}
	}
	h.pending = kept
	h.tick++

	if latest != nil && h.BlendWeight > 0 {
		w := h.BlendWeight
		return sAngle*(1-w) + latest.angle*w, sThrottle*(1-w) + latest.throttle*w
	}
	return sAngle, sThrottle
}

// Drive implements sim.Driver.
func (h *HybridDriver) Drive(st sim.CarState) (float64, float64) { return h.Student.Drive(st) }

// Err surfaces the first inference error from either half.
func (h *HybridDriver) Err() error {
	if err := h.Student.Err(); err != nil {
		return err
	}
	return h.Teacher.Err()
}

// HybridEvalResult extends EvalResult with the distillation facts.
type HybridEvalResult struct {
	EvalResult
	StudentParams int
	TeacherParams int
	DistillLoss   float64
	// Fallbacks counts eval frames whose per-frame cloud round trip
	// failed (outage) or missed its deadline, so the on-device student
	// served them alone; nonzero only when a scenario partitions or slows
	// the cloud link.
	Fallbacks int
}

// EvaluateHybrid runs the *working* hybrid runtime end to end: download
// the teacher from the object store, distill a student for the car,
// compute the cloud path's delay in ticks from the placement model, and
// drive with the HybridDriver blending delayed teacher commands into the
// student's loop.
func (p *Pipeline) EvaluateHybrid(modelObject string, pm PlacementModel, dc pilot.DistillConfig,
	blend float64, ticks int) (HybridEvalResult, error) {
	out := HybridEvalResult{EvalResult: EvalResult{Placement: HybridPlacement}}
	data, err := p.storeGet(ContainerModels, modelObject)
	if err != nil {
		return out, fmt.Errorf("core: model download: %w", err)
	}
	tr, err := p.wanTransfer(int64(len(data)))
	if err != nil {
		return out, err
	}
	out.Download = tr.Duration
	teacher, err := pilot.Load(bytesNewReader(data))
	if err != nil {
		return out, err
	}
	out.TeacherParams = teacher.ParamCount()

	// Distill on a fresh expert drive (the student must see real frames).
	car, err := p.M.NewCar()
	if err != nil {
		return out, err
	}
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 400, OffTrackMargin: 0.1, ResetOnCrash: true},
		car, p.M.Camera(), sim.NewPurePursuit(p.M.Track, car.Cfg))
	if err != nil {
		return out, err
	}
	res := ses.Run(timeUnix(1_700_002_000))
	samples, err := pilot.SamplesFromRecords(teacher.Cfg, res.Records)
	if err != nil {
		return out, err
	}
	student, hist, err := pilot.Distill(teacher, samples, dc)
	if err != nil {
		return out, err
	}
	out.StudentParams = student.ParamCount()
	out.DistillLoss = hist.BestValLoss

	// The student closes the loop at its own (edge) latency; the cloud
	// round trip sets how stale the teacher's refinements are.
	hz := 20.0
	studentLat, err := pm.Edge.InferenceTime(student.ParamCount())
	if err != nil {
		return out, err
	}
	out.Latency = studentLat
	out.DelayTicks = DelayTicksFor(studentLat, hz)
	cloudLat, err := p.controlLatency(pm, CloudPlacement, teacher.ParamCount())
	if err != nil {
		return out, err
	}
	cloudTicks := DelayTicksFor(cloudLat, hz)

	sd, err := pilot.NewAutoDriver(student)
	if err != nil {
		return out, err
	}
	td, err := pilot.NewAutoDriver(teacher)
	if err != nil {
		return out, err
	}
	hd, err := NewHybridDriver(sd, td, cloudTicks, blend)
	if err != nil {
		return out, err
	}
	// Live per-frame cloud RPC: each control tick advances the plan's
	// clock, so the eval drives through real partitions; a failed or
	// too-slow round trip falls back to the student alone.
	tick := time.Duration(float64(time.Second) / hz)
	hd.CloudRPC = func(int) (int, error) {
		p.Faults.Clock.Advance(tick)
		d, err := p.M.Net.RTT(pm.Link, pm.FrameBytes, pm.CmdBytes)
		if err != nil {
			return 0, err
		}
		return DelayTicksFor(d, hz), nil
	}
	hd.OnFallback = p.Faults.RecordFallback
	delayed, err := NewDelayedDriver(hd, out.DelayTicks)
	if err != nil {
		return out, err
	}
	evalCar, err := p.M.NewCar()
	if err != nil {
		return out, err
	}
	evalSes, err := sim.NewSession(sim.SessionConfig{
		Hz: hz, MaxTicks: ticks, OffTrackMargin: 0.15, ResetOnCrash: true,
	}, evalCar, p.M.Camera(), delayed)
	if err != nil {
		return out, err
	}
	evalRes := evalSes.Run(timeUnix(1_700_003_000))
	if err := hd.Err(); err != nil {
		return out, err
	}
	out.Fallbacks = hd.Fallbacks
	rep, err := eval.Evaluate(evalRes, p.M.Track, hz)
	if err != nil {
		return out, err
	}
	out.Report = rep
	return out, nil
}
