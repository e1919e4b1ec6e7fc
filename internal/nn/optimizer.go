package nn

import (
	"fmt"
	"math"
	"sync"
)

// Optimizer updates parameters from their accumulated gradients and zeroes
// the gradients afterwards.
type Optimizer interface {
	Step(params []*Param) error
	Name() string
}

// LRScaler is implemented by optimizers whose learning rate can be decayed
// between epochs (Adam qualifies).
type LRScaler interface {
	ScaleLR(factor float64)
}

// ScaleLR implements LRScaler.
func (a *Adam) ScaleLR(factor float64) {
	if factor > 0 {
		a.LR *= factor
	}
}

// Adam is the Adam optimizer (Kingma & Ba), the default DonkeyCar training
// optimizer.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*Tensor
	v map[*Param]*Tensor
}

// NewAdam builds an Adam optimizer with the usual defaults for unset betas.
func NewAdam(lr float64) (*Adam, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: learning rate must be positive")
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param]*Tensor{}, v: map[*Param]*Tensor{}}, nil
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) error {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	// Folding the bias corrections into the step size and the
	// second-moment scale leaves one division per element instead of
	// three (mathematically identical update, fewer rounding steps).
	step := a.LR / bc1
	invBC2 := 1 / bc2
	for _, p := range params {
		if p.Frozen {
			p.ZeroGrad()
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = NewTensor(p.W.Shape...)
			a.m[p] = m
			a.v[p] = NewTensor(p.W.Shape...)
		}
		w, gd, md, vd := p.W.Data, p.grad().Data, m.Data, a.v[p].Data
		parallelFor(len(w), 16*len(w), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				gi := gd[i]
				md[i] = a.Beta1*md[i] + (1-a.Beta1)*gi
				vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*gi*gi
				w[i] -= step * md[i] / (math.Sqrt(vd[i]*invBC2) + a.Eps)
				gd[i] = 0
			}
		})
	}
	return nil
}

// ClipGradients scales all gradients down so the global max-abs does not
// exceed limit. Returns the pre-clip max. Params that have not trained
// have no gradient and count as zero. The scan and the scale are
// elementwise passes across workers; the max skips NaN, so it does not
// depend on how the scan is split.
func ClipGradients(params []*Param, limit float64) float64 {
	maxAbs := 0.0
	var mu sync.Mutex
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		g := p.Grad.Data
		parallelFor(len(g), len(g), func(lo, hi int) {
			m := absMax(g[lo:hi])
			mu.Lock()
			if m > maxAbs {
				maxAbs = m
			}
			mu.Unlock()
		})
	}
	if limit > 0 && maxAbs > limit {
		scale := limit / maxAbs
		for _, p := range params {
			if p.Grad == nil {
				continue
			}
			g := p.Grad.Data
			parallelFor(len(g), len(g), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					g[i] *= scale
				}
			})
		}
	}
	return maxAbs
}
