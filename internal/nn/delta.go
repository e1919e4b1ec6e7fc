package nn

import "fmt"

// This file implements applying a weight delta, the primitive the
// federated layer's aggregation builds on: the parameter server averages
// its workers' deltas into one and adds it to the global model. Deltas
// live in float64 space so they can be scaled and averaged.

// WeightDelta is a parameter-wise difference for one architecture, in
// Params() order: Tensors holds the dense float64 differences.
type WeightDelta struct {
	Tensors []*Tensor
}

// ApplyDelta adds the delta to the model's weights in place (w += d). It
// checks every tensor's shape before touching a weight, so a mismatched
// delta leaves the model as it was. Gradients are untouched.
func ApplyDelta(m Model, d *WeightDelta) error {
	if d == nil {
		return fmt.Errorf("nn: nil weight delta")
	}
	params := m.Params()
	if len(params) != len(d.Tensors) {
		return fmt.Errorf("nn: delta has %d tensors, model has %d params", len(d.Tensors), len(params))
	}
	for i, t := range d.Tensors {
		if !params[i].W.SameShape(t) {
			return fmt.Errorf("nn: delta tensor %d shape %v, param %s has %v",
				i, t.Shape, params[i].Name, params[i].W.Shape)
		}
	}
	for i, t := range d.Tensors {
		w := params[i].W.Data
		for j, v := range t.Data {
			w[j] += v
		}
	}
	return nil
}
