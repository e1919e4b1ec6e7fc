package pilot

import (
	"fmt"
	"io"
	"math"

	"repro/internal/nn"
)

// Pilot is a trained (or trainable) autopilot of one of the six kinds.
type Pilot struct {
	Cfg   Config
	model nn.Model
	loss  nn.Loss

	// quantMode/qmodel hold the optional int8 inference copy built by
	// EnableQuant; the float model stays the source of truth.
	quantMode string
	qmodel    nn.Model
}

// New builds an untrained pilot from a validated config.
func New(cfg Config) (*Pilot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, loss, err := cfg.buildModel()
	if err != nil {
		return nil, err
	}
	return &Pilot{Cfg: cfg, model: model, loss: loss}, nil
}

// Model exposes the underlying network (for parameter counting etc.).
func (p *Pilot) Model() nn.Model { return p.model }

// Loss exposes the training loss matching the architecture.
func (p *Pilot) Loss() nn.Loss { return p.loss }

// ParamCount returns the number of trainable scalars.
func (p *Pilot) ParamCount() int { return nn.ParamCount(p.model) }

// Train fits the pilot to samples with Adam, the DonkeyCar default.
func (p *Pilot) Train(samples []Sample, cfg nn.TrainConfig) (nn.History, error) {
	data, err := p.Cfg.BuildDataset(samples)
	if err != nil {
		return nn.History{}, err
	}
	opt, err := nn.NewAdam(1e-3)
	if err != nil {
		return nn.History{}, err
	}
	hist, err := nn.Train(p.model, data, p.loss, opt, cfg)
	if err == nil && p.quantMode != "" {
		// Weights moved: rebuild the int8 copy so inference keeps
		// tracking the float model.
		err = p.EnableQuant(p.quantMode)
	}
	return hist, err
}

// Validate computes the pilot's loss over samples without training.
func (p *Pilot) Validate(samples []Sample, batchSize int) (float64, error) {
	data, err := p.Cfg.BuildDataset(samples)
	if err != nil {
		return 0, err
	}
	return nn.Evaluate(p.model, data, p.loss, batchSize)
}

// clampOut limits a network output to [-1, 1].
func clampOut(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// Infer runs one sample through the network and decodes (angle, throttle)
// according to the architecture. The sample's label fields are ignored.
func (p *Pilot) Infer(s Sample) (angle, throttle float64, err error) {
	out, err := p.InferBatch([]Sample{s})
	if err != nil {
		return 0, 0, err
	}
	return out[0][0], out[0][1], nil
}

// InferBatch runs N samples through the network in a single forward pass
// and decodes each row to (angle, throttle). This is the serving-layer
// fast path: N concurrent clients pay one batched GEMM instead of N
// single-sample passes. Outputs are identical to calling Infer per sample.
// The model's forward pass mutates layer state, so concurrent InferBatch
// calls on the same Pilot must be serialized by the caller.
func (p *Pilot) InferBatch(samples []Sample) ([][2]float64, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("pilot: empty batch")
	}
	for i, s := range samples {
		if err := p.Cfg.checkSample(s); err != nil {
			return nil, fmt.Errorf("pilot: batch sample %d: %w", i, err)
		}
	}
	x, err := p.Cfg.buildX(samples)
	if err != nil {
		return nil, err
	}
	y, err := p.inferModel().Forward(x, false)
	if err != nil {
		return nil, err
	}
	if len(y.Shape) != 2 || y.Shape[0] != len(samples) {
		return nil, fmt.Errorf("pilot: batch output shape %v for %d samples", y.Shape, len(samples))
	}
	d := y.Shape[1]
	out := make([][2]float64, len(samples))
	for i := range samples {
		angle, throttle, err := p.decodeRow(y.Data[i*d : (i+1)*d])
		if err != nil {
			return nil, err
		}
		out[i] = [2]float64{angle, throttle}
	}
	return out, nil
}

// decodeRow turns one output row into (angle, throttle) per the
// architecture's decoding rule.
func (p *Pilot) decodeRow(row []float64) (angle, throttle float64, err error) {
	switch p.Cfg.Kind {
	case Linear, Memory, RNN, Conv3D:
		return clampOut(row[0]), clampOut(row[1]), nil
	case Inferred:
		angle = clampOut(row[0])
		// DonkeyCar's inferred rule: full speed when pointing straight,
		// backing off with steering magnitude. The square-root shaping
		// brakes early on moderate steering, which is what lets the pilot
		// carry speed on straights yet stay accurate in corners — the
		// behaviour the paper singles out.
		throttle = p.Cfg.MaxThrottle - (p.Cfg.MaxThrottle-p.Cfg.MinThrottle)*math.Sqrt(math.Abs(angle))
		return angle, throttle, nil
	case Categorical:
		ab, tb := p.Cfg.AngleBins, p.Cfg.ThrottleBins
		ai := nn.ArgMax(row[:ab])
		ti := nn.ArgMax(row[ab : ab+tb])
		return nn.Unbin(ai, -1, 1, ab), nn.Unbin(ti, 0, 1, tb), nil
	}
	return 0, 0, fmt.Errorf("pilot: unknown kind %q", p.Cfg.Kind)
}

// Save writes a checkpoint (config + weights).
func (p *Pilot) Save(w io.Writer) error {
	cfgStr, err := p.Cfg.marshal()
	if err != nil {
		return err
	}
	return nn.SaveParams(w, paramsOf(p.model), map[string]string{"config": cfgStr})
}

// Load reads a checkpoint in one decode, rebuilding the architecture from
// the stored config and restoring weights.
func Load(r io.Reader) (*Pilot, error) {
	var p *Pilot
	_, err := nn.LoadCheckpoint(r, func(meta map[string]string) ([]*nn.Param, error) {
		cfgStr, ok := meta["config"]
		if !ok {
			return nil, fmt.Errorf("pilot: checkpoint has no config")
		}
		cfg, err := unmarshalConfig(cfgStr)
		if err != nil {
			return nil, err
		}
		if p, err = New(cfg); err != nil {
			return nil, err
		}
		return paramsOf(p.model), nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Clone returns a deep copy of the pilot that shares no slice with p
// (see nn.Sequential.Clone): the same bits as New of p's config given
// p's weights, without a second He initialization or a checkpoint
// decode. A quantized pilot's clone quantizes its own weights in the
// same mode, which gives the int8 weights p holds.
func (p *Pilot) Clone() (*Pilot, error) {
	model, err := cloneModel(p.model)
	if err != nil {
		return nil, err
	}
	c := &Pilot{Cfg: p.Cfg, model: model, loss: p.loss}
	if p.quantMode != "" {
		if err := c.EnableQuant(p.quantMode); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// cloneModel dispatches over the two model shapes the six pilot kinds
// produce, as quantizeModel does.
func cloneModel(m nn.Model) (nn.Model, error) {
	switch v := m.(type) {
	case *nn.Sequential:
		return v.Clone()
	case *memoryModel:
		enc, err := v.encoder.Clone()
		if err != nil {
			return nil, err
		}
		head, err := v.head.Clone()
		if err != nil {
			return nil, err
		}
		return &memoryModel{cfg: v.cfg, encoder: enc, head: head}, nil
	}
	return nil, fmt.Errorf("pilot: cannot clone model type %T", m)
}

// paramsOf is a tiny alias making intent explicit at call sites.
func paramsOf(m nn.Model) []*nn.Param { return m.Params() }
