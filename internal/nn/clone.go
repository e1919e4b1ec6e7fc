package nn

import "fmt"

// Clone returns a deep copy of the model that shares no slice with s; the
// package doc says what it copies. The copy trains, infers and serializes
// exactly as a model built by the same constructors and given the same
// weights would. A layer type Clone does not know, the int8 layers among
// them, is an error.
func (s *Sequential) Clone() (*Sequential, error) {
	layers := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		c, err := cloneLayer(l)
		if err != nil {
			return nil, fmt.Errorf("nn: clone layer %d: %w", i, err)
		}
		layers[i] = c
	}
	return NewSequential(layers...), nil
}

func cloneLayer(l Layer) (Layer, error) {
	switch v := l.(type) {
	case *Dense:
		return &Dense{In: v.In, Out: v.Out, w: v.w.clone(), b: v.b.clone()}, nil
	case *Conv2D:
		return &Conv2D{InC: v.InC, OutC: v.OutC, K: v.K, Stride: v.Stride, Naive: v.Naive,
			w: v.w.clone(), b: v.b.clone()}, nil
	case *Conv3D:
		return &Conv3D{InC: v.InC, OutC: v.OutC, KT: v.KT, K: v.K, Stride: v.Stride,
			w: v.w.clone(), b: v.b.clone()}, nil
	case *LSTM:
		return &LSTM{In: v.In, Hidden: v.Hidden, wx: v.wx.clone(), wh: v.wh.clone(), b: v.b.clone()}, nil
	case *BatchNorm:
		return &BatchNorm{Features: v.Features, Momentum: v.Momentum, Eps: v.Eps,
			gamma: v.gamma.clone(), beta: v.beta.clone(),
			runMeanP: v.runMeanP.clone(), runVarP: v.runVarP.clone()}, nil
	case *Dropout:
		return &Dropout{Rate: v.Rate, seed: v.seed}, nil
	case *TimeDistributed:
		inner, err := v.Inner.Clone()
		if err != nil {
			return nil, err
		}
		return NewTimeDistributed(inner, v.StepShape...), nil
	case *ReLU:
		return &ReLU{}, nil
	case *Tanh:
		return &Tanh{}, nil
	case *Flatten:
		return &Flatten{}, nil
	}
	return nil, fmt.Errorf("cannot clone layer type %T", l)
}

// clone copies the param's name, Frozen flag and weights, not its
// gradient.
func (p *Param) clone() *Param {
	return &Param{Name: p.Name, W: p.W.Clone(), Frozen: p.Frozen}
}
