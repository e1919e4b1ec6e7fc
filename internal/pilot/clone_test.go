package pilot

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
)

// layersOf lists every layer of a pilot's model in order, descending
// into the memory model's two halves and TimeDistributed encoders.
func layersOf(m nn.Model) []nn.Layer {
	var seqs []*nn.Sequential
	switch v := m.(type) {
	case *nn.Sequential:
		seqs = []*nn.Sequential{v}
	case *memoryModel:
		seqs = []*nn.Sequential{v.encoder, v.head}
	}
	var out []nn.Layer
	for len(seqs) > 0 {
		s := seqs[0]
		seqs = seqs[1:]
		for _, l := range s.Layers {
			out = append(out, l)
			if td, ok := l.(*nn.TimeDistributed); ok {
				seqs = append(seqs, td.Inner)
			}
		}
	}
	return out
}

// sameParams compares two pilots' params by name, shape, Frozen flag and
// value bits. BatchNorm's running statistics are frozen params, so they
// are compared here too.
func sameParams(a, b *Pilot) error {
	pa, pb := a.Model().Params(), b.Model().Params()
	if len(pa) != len(pb) {
		return fmt.Errorf("%d params vs %d", len(pa), len(pb))
	}
	for i := range pa {
		x, y := pa[i], pb[i]
		if x.Name != y.Name || x.Frozen != y.Frozen || !x.W.SameShape(y.W) {
			return fmt.Errorf("param %d: %s frozen=%v %v vs %s frozen=%v %v",
				i, x.Name, x.Frozen, x.W.Shape, y.Name, y.Frozen, y.W.Shape)
		}
		for j := range x.W.Data {
			if math.Float64bits(x.W.Data[j]) != math.Float64bits(y.W.Data[j]) {
				return fmt.Errorf("param %d (%s)[%d]: %g vs %g", i, x.Name, j, x.W.Data[j], y.W.Data[j])
			}
		}
	}
	return nil
}

// sameLayers compares the two models layer by layer: types, BatchNorm
// configs, and each Dropout's first training mask over a row of ones,
// which is a function of its seed. The probe draws the same count from
// both, so later training still runs the two in step.
func sameLayers(a, b *Pilot) error {
	la, lb := layersOf(a.model), layersOf(b.model)
	if len(la) != len(lb) {
		return fmt.Errorf("%d layers vs %d", len(la), len(lb))
	}
	for i := range la {
		if fmt.Sprintf("%T", la[i]) != fmt.Sprintf("%T", lb[i]) {
			return fmt.Errorf("layer %d: %T vs %T", i, la[i], lb[i])
		}
		switch x := la[i].(type) {
		case *nn.BatchNorm:
			y := lb[i].(*nn.BatchNorm)
			if x.Features != y.Features || x.Momentum != y.Momentum || x.Eps != y.Eps {
				return fmt.Errorf("layer %d: batchnorm %+v vs %+v", i, x, y)
			}
		case *nn.Dropout:
			ones := nn.NewTensor(1, 64)
			ones.Fill(1)
			ya, err := x.Forward(ones, true)
			if err != nil {
				return err
			}
			yb, err := lb[i].(*nn.Dropout).Forward(ones, true)
			if err != nil {
				return err
			}
			for j := range ya.Data {
				if math.Float64bits(ya.Data[j]) != math.Float64bits(yb.Data[j]) {
					return fmt.Errorf("layer %d: dropout masks differ at %d (seeds differ)", i, j)
				}
			}
		}
	}
	return nil
}

func sameOutputs(a, b [][2]float64) error {
	for i := range a {
		for k := range a[i] {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return fmt.Errorf("sample %d output %d: %g vs %g", i, k, a[i][k], b[i][k])
			}
		}
	}
	return nil
}

// built is New of p's config given p's weights, frozen params included:
// the pilot a clone of p must equal bit for bit.
func built(t *testing.T, p *Pilot) *Pilot {
	t.Helper()
	q, err := New(p.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := p.Model().Params()
	for i, prm := range q.Model().Params() {
		copy(prm.W.Data, src[i].W.Data)
	}
	return q
}

// TestCloneBitwise pins Pilot.Clone, for every kind with BatchNorm off
// and on, to New of the same config given the same weights: params with
// their names, shapes and Frozen flags, BatchNorm running statistics,
// Dropout seeds, float and int8 InferBatch, and the weights after one
// training epoch. The source has trained first, so its weights and
// statistics are not a fresh initialization and its Dropout generators
// have run. Training the clone leaves the source's bits unchanged, and
// the reverse.
func TestCloneBitwise(t *testing.T) {
	recs := syntheticRecords(t, 24)
	train := nn.TrainConfig{Epochs: 1, BatchSize: 8, Seed: 3}
	for _, kind := range AllKinds() {
		for _, bn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batchnorm=%v", kind, bn), func(t *testing.T) {
				cfg := testCfg(kind)
				cfg.BatchNorm = bn
				samples, err := SamplesFromRecords(cfg, recs)
				if err != nil {
					t.Fatal(err)
				}
				src, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := src.Train(samples, train); err != nil {
					t.Fatal(err)
				}
				c, err := src.Clone()
				if err != nil {
					t.Fatal(err)
				}
				ref := built(t, src)
				if err := sameParams(c, ref); err != nil {
					t.Fatalf("clone vs New given the same weights: %v", err)
				}
				if err := sameLayers(c, ref); err != nil {
					t.Fatalf("clone vs New given the same weights: %v", err)
				}
				got, err := c.InferBatch(samples[:4])
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.InferBatch(samples[:4])
				if err != nil {
					t.Fatal(err)
				}
				if err := sameOutputs(got, want); err != nil {
					t.Fatalf("float InferBatch: %v", err)
				}

				srcBits := built(t, src)
				if _, err := c.Train(samples, train); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Train(samples, train); err != nil {
					t.Fatal(err)
				}
				if err := sameParams(c, ref); err != nil {
					t.Fatalf("after one epoch, clone vs New given the same weights: %v", err)
				}
				if err := sameParams(src, srcBits); err != nil {
					t.Fatalf("training the clone moved the source: %v", err)
				}
				cloneBits := built(t, c)
				if _, err := src.Train(samples, train); err != nil {
					t.Fatal(err)
				}
				if err := sameParams(c, cloneBits); err != nil {
					t.Fatalf("training the source moved the clone: %v", err)
				}

				if err := src.EnableQuant(nn.QuantInt8); err != nil {
					t.Fatal(err)
				}
				qc, err := src.Clone()
				if err != nil {
					t.Fatal(err)
				}
				if qc.QuantMode() != nn.QuantInt8 {
					t.Fatalf("clone of an int8 pilot has quant mode %q", qc.QuantMode())
				}
				qref := built(t, src)
				if err := qref.EnableQuant(nn.QuantInt8); err != nil {
					t.Fatal(err)
				}
				got, err = qc.InferBatch(samples[:4])
				if err != nil {
					t.Fatal(err)
				}
				want, err = qref.InferBatch(samples[:4])
				if err != nil {
					t.Fatal(err)
				}
				if err := sameOutputs(got, want); err != nil {
					t.Fatalf("int8 InferBatch: %v", err)
				}
			})
		}
	}
}
