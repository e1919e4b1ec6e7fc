package nn

import (
	"fmt"
	"math"
)

// Loss computes a scalar loss and the gradient of the loss with respect to
// the prediction. Both tensors are [N, D].
type Loss interface {
	Loss(pred, target *Tensor) (float64, *Tensor, error)
	Name() string
}

// MSE is mean squared error averaged over all elements, the loss the
// continuous pilots (linear, memory, RNN, 3D, inferred) train with.
type MSE struct{}

// Name implements Loss.
func (MSE) Name() string { return "mse" }

// Loss implements Loss.
func (MSE) Loss(pred, target *Tensor) (float64, *Tensor, error) {
	if !pred.SameShape(target) {
		return 0, nil, fmt.Errorf("nn: mse shape mismatch %v vs %v", pred.Shape, target.Shape)
	}
	grad := NewTensor(pred.Shape...)
	var sum float64
	n := float64(len(pred.Data))
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		sum += d * d
		grad.Data[i] = 2 * d / n
	}
	return sum / n, grad, nil
}

// SoftmaxCrossEntropy treats the prediction as logits over D classes and
// the target as one-hot rows. Softmax and cross-entropy are fused so the
// gradient is simply (softmax - target)/N.
type SoftmaxCrossEntropy struct{}

// Name implements Loss.
func (SoftmaxCrossEntropy) Name() string { return "softmax-ce" }

// Loss implements Loss.
func (SoftmaxCrossEntropy) Loss(pred, target *Tensor) (float64, *Tensor, error) {
	if !pred.SameShape(target) {
		return 0, nil, fmt.Errorf("nn: ce shape mismatch %v vs %v", pred.Shape, target.Shape)
	}
	if len(pred.Shape) != 2 {
		return 0, nil, fmt.Errorf("nn: ce expects [N,D], got %v", pred.Shape)
	}
	n, d := pred.Shape[0], pred.Shape[1]
	grad := NewTensor(n, d)
	var total float64
	for i := 0; i < n; i++ {
		row := pred.Data[i*d : (i+1)*d]
		trow := target.Data[i*d : (i+1)*d]
		// Stable softmax.
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var z float64
		for _, v := range row {
			z += math.Exp(v - maxv)
		}
		for j := 0; j < d; j++ {
			p := math.Exp(row[j]-maxv) / z
			grad.Data[i*d+j] = (p - trow[j]) / float64(n)
			if trow[j] > 0 {
				total -= trow[j] * math.Log(math.Max(p, 1e-15))
			}
		}
	}
	return total / float64(n), grad, nil
}

// SplitCategorical is the two-headed loss of the categorical pilot: the
// first AngleBins logits are a softmax over steering bins and the remaining
// ThrottleBins logits a softmax over throttle bins, summed with equal
// weight (as DonkeyCar's KerasCategorical compiles its two heads).
type SplitCategorical struct {
	AngleBins, ThrottleBins int
	ce                      SoftmaxCrossEntropy
}

// Name implements Loss.
func (s SplitCategorical) Name() string { return "split-categorical" }

// Loss implements Loss.
func (s SplitCategorical) Loss(pred, target *Tensor) (float64, *Tensor, error) {
	want := s.AngleBins + s.ThrottleBins
	if len(pred.Shape) != 2 || pred.Shape[1] != want {
		return 0, nil, fmt.Errorf("nn: split loss expects [N,%d], got %v", want, pred.Shape)
	}
	if !pred.SameShape(target) {
		return 0, nil, fmt.Errorf("nn: split loss shape mismatch")
	}
	n := pred.Shape[0]
	slice := func(t *Tensor, lo, hi int) *Tensor {
		out := NewTensor(n, hi-lo)
		for i := 0; i < n; i++ {
			copy(out.Data[i*(hi-lo):(i+1)*(hi-lo)], t.Data[i*want+lo:i*want+hi])
		}
		return out
	}
	aLoss, aGrad, err := s.ce.Loss(slice(pred, 0, s.AngleBins), slice(target, 0, s.AngleBins))
	if err != nil {
		return 0, nil, err
	}
	tLoss, tGrad, err := s.ce.Loss(slice(pred, s.AngleBins, want), slice(target, s.AngleBins, want))
	if err != nil {
		return 0, nil, err
	}
	grad := NewTensor(n, want)
	for i := 0; i < n; i++ {
		copy(grad.Data[i*want:i*want+s.AngleBins], aGrad.Data[i*s.AngleBins:(i+1)*s.AngleBins])
		copy(grad.Data[i*want+s.AngleBins:(i+1)*want], tGrad.Data[i*s.ThrottleBins:(i+1)*s.ThrottleBins])
	}
	return aLoss + tLoss, grad, nil
}

// Bin maps a continuous value to its bucket index.
func Bin(v, lo, hi float64, bins int) int {
	if v <= lo {
		return 0
	}
	if v >= hi {
		return bins - 1
	}
	i := int((v - lo) / (hi - lo) * float64(bins))
	if i >= bins {
		i = bins - 1
	}
	return i
}

// Unbin maps a bucket index back to the bucket's center value.
func Unbin(i int, lo, hi float64, bins int) float64 {
	return lo + (float64(i)+0.5)*(hi-lo)/float64(bins)
}

// ArgMax returns the index of the largest value in a row.
func ArgMax(row []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range row {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
