package nn

import (
	"fmt"
	"math"
)

// BatchNorm normalizes activations per feature (2-D input [N, D]) or per
// channel (4-D input [N, C, H, W]), with learned scale/shift and running
// statistics for inference — matching Keras's BatchNormalization, which
// DonkeyCar's stock models use between conv blocks.
type BatchNorm struct {
	Features int
	Momentum float64 // running-stat update rate, typically 0.9
	Eps      float64

	gamma, beta *Param
	// Running statistics live in frozen params so they travel inside
	// checkpoints alongside the trainable weights.
	runMeanP, runVarP *Param

	// Backward caches.
	lastXHat  *Tensor
	lastStd   []float64
	lastShape []int
}

// NewBatchNorm builds a layer normalizing the given feature/channel count.
func NewBatchNorm(features int) (*BatchNorm, error) {
	if features <= 0 {
		return nil, fmt.Errorf("nn: batchnorm features must be positive")
	}
	bn := &BatchNorm{
		Features: features,
		Momentum: 0.9,
		Eps:      1e-5,
		gamma:    newParam("gamma", features),
		beta:     newParam("beta", features),
		runMeanP: newParam("run_mean", features),
		runVarP:  newParam("run_var", features),
	}
	bn.runMeanP.Frozen = true
	bn.runVarP.Frozen = true
	bn.gamma.W.Fill(1)
	bn.runVarP.W.Fill(1)
	return bn, nil
}

// geometry returns the batch and per-feature spatial extents for the two
// supported layouts: [N,D] → D features; [N,C,H,W] → C channels.
func (bn *BatchNorm) geometry(x *Tensor) (groups int, spatial int, err error) {
	switch len(x.Shape) {
	case 2:
		if x.Shape[1] != bn.Features {
			return 0, 0, fmt.Errorf("nn: batchnorm expects [N,%d], got %v", bn.Features, x.Shape)
		}
		return x.Shape[0], 1, nil
	case 4:
		if x.Shape[1] != bn.Features {
			return 0, 0, fmt.Errorf("nn: batchnorm expects [N,%d,H,W], got %v", bn.Features, x.Shape)
		}
		return x.Shape[0], x.Shape[2] * x.Shape[3], nil
	default:
		return 0, 0, fmt.Errorf("nn: batchnorm supports 2-D or 4-D input, got %v", x.Shape)
	}
}

// index maps (sample n, feature f, spatial s) to the flat element index.
func (bn *BatchNorm) index(n, f, s, spatial int) int {
	return (n*bn.Features+f)*spatial + s
}

// Forward implements Layer.
func (bn *BatchNorm) Forward(x *Tensor, train bool) (*Tensor, error) {
	nBatch, spatial, err := bn.geometry(x)
	if err != nil {
		return nil, err
	}
	y := x.Clone()
	bn.lastShape = append(bn.lastShape[:0], x.Shape...)
	count := float64(nBatch * spatial)

	mean := make([]float64, bn.Features)
	variance := make([]float64, bn.Features)
	if train {
		for f := 0; f < bn.Features; f++ {
			var sum float64
			for n := 0; n < nBatch; n++ {
				for s := 0; s < spatial; s++ {
					sum += x.Data[bn.index(n, f, s, spatial)]
				}
			}
			m := sum / count
			var vs float64
			for n := 0; n < nBatch; n++ {
				for s := 0; s < spatial; s++ {
					d := x.Data[bn.index(n, f, s, spatial)] - m
					vs += d * d
				}
			}
			mean[f] = m
			variance[f] = vs / count
			bn.runMeanP.W.Data[f] = bn.Momentum*bn.runMeanP.W.Data[f] + (1-bn.Momentum)*m
			bn.runVarP.W.Data[f] = bn.Momentum*bn.runVarP.W.Data[f] + (1-bn.Momentum)*variance[f]
		}
	} else {
		copy(mean, bn.runMeanP.W.Data)
		copy(variance, bn.runVarP.W.Data)
	}

	bn.lastXHat = NewTensor(x.Shape...)
	if cap(bn.lastStd) < bn.Features {
		bn.lastStd = make([]float64, bn.Features)
	}
	bn.lastStd = bn.lastStd[:bn.Features]
	for f := 0; f < bn.Features; f++ {
		std := math.Sqrt(variance[f] + bn.Eps)
		bn.lastStd[f] = std
		g, b := bn.gamma.W.Data[f], bn.beta.W.Data[f]
		for n := 0; n < nBatch; n++ {
			for s := 0; s < spatial; s++ {
				i := bn.index(n, f, s, spatial)
				xh := (x.Data[i] - mean[f]) / std
				bn.lastXHat.Data[i] = xh
				y.Data[i] = g*xh + b
			}
		}
	}
	return y, nil
}

// Backward implements Layer (training-mode gradient through the batch
// statistics).
func (bn *BatchNorm) Backward(grad *Tensor) (*Tensor, error) {
	if bn.lastXHat == nil || !grad.SameShape(bn.lastXHat) {
		return nil, fmt.Errorf("nn: batchnorm backward shape mismatch")
	}
	nBatch, spatial, err := bn.geometry(grad)
	if err != nil {
		return nil, err
	}
	count := float64(nBatch * spatial)
	dx := NewTensor(grad.Shape...)
	dBeta, dGamma := bn.beta.grad().Data, bn.gamma.grad().Data
	for f := 0; f < bn.Features; f++ {
		var sumDy, sumDyXhat float64
		for n := 0; n < nBatch; n++ {
			for s := 0; s < spatial; s++ {
				i := bn.index(n, f, s, spatial)
				sumDy += grad.Data[i]
				sumDyXhat += grad.Data[i] * bn.lastXHat.Data[i]
			}
		}
		dBeta[f] += sumDy
		dGamma[f] += sumDyXhat
		g := bn.gamma.W.Data[f]
		std := bn.lastStd[f]
		for n := 0; n < nBatch; n++ {
			for s := 0; s < spatial; s++ {
				i := bn.index(n, f, s, spatial)
				dx.Data[i] = g / std * (grad.Data[i] - sumDy/count - bn.lastXHat.Data[i]*sumDyXhat/count)
			}
		}
	}
	return dx, nil
}

// Params implements Layer. The running statistics ride along as frozen
// params so checkpoints restore inference behaviour exactly.
func (bn *BatchNorm) Params() []*Param {
	return []*Param{bn.gamma, bn.beta, bn.runMeanP, bn.runVarP}
}
