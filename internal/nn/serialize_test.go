package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

const goldenCheckpoint = "testdata/checkpoint_v1.golden"

// goldenParams rebuilds the exact parameter set the golden blob was
// generated from: shapes mirror a small conv+dense pilot head and the
// values come from a fixed RNG stream, so the expected weights can be
// reconstructed bit-for-bit without storing them twice.
func goldenParams() []*Param {
	rng := rand.New(rand.NewSource(90125))
	ps := []*Param{
		newParam("conv.w", 4, 1, 3, 3),
		newParam("conv.b", 4),
		newParam("dense.w", 36, 2),
		newParam("dense.b", 1, 2),
	}
	for _, p := range ps {
		p.W.RandNormal(rng, 0.5)
	}
	return ps
}

var goldenMeta = map[string]string{
	"arch":    "linear",
	"inputs":  "1x15x15",
	"outputs": "2",
}

// TestGoldenCheckpointRoundTrip decodes the checked-in checkpoint blob
// and verifies every weight bit-for-bit against the regenerated
// originals, pinning the on-disk format: any change to the gob schema,
// magic string or float encoding fails here against a blob produced by
// the old code. Set NN_REGEN_GOLDEN=1 to rewrite the blob after an
// intentional format change.
//
// The fresh save is deliberately NOT byte-compared to the golden file:
// gob serializes maps in randomized key order, so two encodings of the
// same checkpoint legally differ in bytes while decoding identically.
// The contract tested is decode equality, not byte equality.
func TestGoldenCheckpointRoundTrip(t *testing.T) {
	if os.Getenv("NN_REGEN_GOLDEN") != "" {
		var buf bytes.Buffer
		if err := SaveParams(&buf, goldenParams(), goldenMeta); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCheckpoint), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCheckpoint, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", goldenCheckpoint, buf.Len())
	}

	blob, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatalf("missing golden checkpoint (regenerate with NN_REGEN_GOLDEN=1): %v", err)
	}

	want := goldenParams()
	got := goldenParams()
	for _, p := range got {
		p.W.Zero()
		p.grad().Fill(1) // must be zeroed by LoadParams
	}
	meta, err := LoadParams(bytes.NewReader(blob), got)
	if err != nil {
		t.Fatalf("decode golden blob: %v", err)
	}
	if len(meta) != len(goldenMeta) {
		t.Fatalf("meta mismatch: got %v want %v", meta, goldenMeta)
	}
	for k, v := range goldenMeta {
		if meta[k] != v {
			t.Errorf("meta[%q] = %q, want %q", k, meta[k], v)
		}
	}
	for i, p := range got {
		for j := range p.W.Data {
			if p.W.Data[j] != want[i].W.Data[j] {
				t.Fatalf("param %d (%s) element %d differs: %v vs %v",
					i, p.Name, j, p.W.Data[j], want[i].W.Data[j])
			}
		}
		if p.Grad.MaxAbs() != 0 {
			t.Errorf("param %d (%s): gradient not zeroed on load", i, p.Name)
		}
	}

	// Round-trip: re-save the loaded params and decode once more.
	var buf bytes.Buffer
	if err := SaveParams(&buf, got, meta); err != nil {
		t.Fatal(err)
	}
	again := goldenParams()
	for _, p := range again {
		p.W.Zero()
	}
	if _, err := LoadParams(&buf, again); err != nil {
		t.Fatalf("decode re-saved checkpoint: %v", err)
	}
	for i := range again {
		for j := range again[i].W.Data {
			if again[i].W.Data[j] != want[i].W.Data[j] {
				t.Fatalf("round-trip changed param %d element %d", i, j)
			}
		}
	}

	// LoadCheckpoint hands its builder the same metadata.
	var m2 map[string]string
	if _, err := LoadCheckpoint(bytes.NewReader(blob), func(m map[string]string) ([]*Param, error) {
		m2 = m
		return goldenParams(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if m2["arch"] != goldenMeta["arch"] {
		t.Errorf("LoadCheckpoint arch = %q, want %q", m2["arch"], goldenMeta["arch"])
	}
}

// buildSerializeModel constructs the tiny seeded model used by the
// trained round-trip test; two calls with the same seed give identical
// architectures with identical initial weights.
func buildSerializeModel(t *testing.T, seed int64) *Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	conv, err := NewConv2D(1, 3, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return NewSequential(
		conv, &ReLU{},
		&Flatten{},
		NewDense(3*5*5, 8, rng), &ReLU{},
		NewDense(8, 2, rng), &Tanh{},
	)
}

// TestSaveLoadTrainedModel trains a tiny seeded model, saves it, loads
// the checkpoint into a freshly built model, and asserts bit-identical
// weights and bit-identical inference outputs — the property every
// pilot checkpoint/resume path in the testbed depends on.
func TestSaveLoadTrainedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := NewTensor(24, 1, 11, 11)
	y := NewTensor(24, 2)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 0.5)

	model := buildSerializeModel(t, 17)
	opt, err := NewAdam(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 2, BatchSize: 8, ValFrac: 0.25, Seed: 17, ClipGrad: 5}
	if _, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt, cfg); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveParams(&buf, model.Params(), map[string]string{"arch": "tiny"}); err != nil {
		t.Fatal(err)
	}

	restored := buildSerializeModel(t, 99) // different seed: weights must come from the blob
	meta, err := LoadParams(&buf, restored.Params())
	if err != nil {
		t.Fatal(err)
	}
	if meta["arch"] != "tiny" {
		t.Fatalf("meta = %v", meta)
	}
	origParams, restParams := model.Params(), restored.Params()
	for i := range origParams {
		for j := range origParams[i].W.Data {
			if origParams[i].W.Data[j] != restParams[i].W.Data[j] {
				t.Fatalf("param %d element %d differs after load", i, j)
			}
		}
	}

	probe := NewTensor(4, 1, 11, 11)
	probe.RandNormal(rng, 1)
	want, err := model.Forward(probe, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Forward(probe, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("inference output %d differs: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestLoadParamsRejects covers the decode error paths: wrong magic,
// param-count mismatch and shape-size mismatch.
func TestLoadParamsRejects(t *testing.T) {
	var good bytes.Buffer
	if err := SaveParams(&good, goldenParams(), nil); err != nil {
		t.Fatal(err)
	}

	t.Run("wrong magic", func(t *testing.T) {
		var buf bytes.Buffer
		ps := goldenParams()
		cpySaved := checkpoint{Magic: "not-a-checkpoint"}
		if err := gob.NewEncoder(&buf).Encode(cpySaved); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadParams(&buf, ps); err == nil {
			t.Fatal("wrong magic accepted")
		}
	})
	t.Run("param count", func(t *testing.T) {
		if _, err := LoadParams(bytes.NewReader(good.Bytes()), goldenParams()[:2]); err == nil {
			t.Fatal("param-count mismatch accepted")
		}
	})
	t.Run("param size", func(t *testing.T) {
		ps := goldenParams()
		ps[0] = newParam("conv.w", 2, 2)
		if _, err := LoadParams(bytes.NewReader(good.Bytes()), ps); err == nil {
			t.Fatal("size mismatch accepted")
		}
	})
	t.Run("garbage stream", func(t *testing.T) {
		if _, err := LoadParams(bytes.NewReader([]byte("not gob")), goldenParams()); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

// TestLoadCheckpoint covers the one-pass decoder's contract with its
// builder: build sees the stored metadata, a build error is returned
// as is, and a stream that is not a checkpoint never reaches build.
func TestLoadCheckpoint(t *testing.T) {
	var good bytes.Buffer
	if err := SaveParams(&good, goldenParams(), map[string]string{"pilot": "linear"}); err != nil {
		t.Fatal(err)
	}
	var seen map[string]string
	meta, err := LoadCheckpoint(bytes.NewReader(good.Bytes()), func(m map[string]string) ([]*Param, error) {
		seen = m
		return goldenParams(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen["pilot"] != "linear" || meta["pilot"] != "linear" {
		t.Errorf("build saw %v, LoadCheckpoint returned %v", seen, meta)
	}

	errBuild := errors.New("no such architecture")
	if _, err := LoadCheckpoint(bytes.NewReader(good.Bytes()), func(map[string]string) ([]*Param, error) {
		return nil, errBuild
	}); !errors.Is(err, errBuild) {
		t.Errorf("build error = %v, want %v", err, errBuild)
	}

	var wrongMagic bytes.Buffer
	if err := gob.NewEncoder(&wrongMagic).Encode(checkpoint{Magic: "not-a-checkpoint"}); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{"wrong magic": wrongMagic.Bytes(), "not gob": []byte("not gob")} {
		_, err := LoadCheckpoint(bytes.NewReader(blob), func(map[string]string) ([]*Param, error) {
			t.Errorf("%s: build called", name)
			return nil, nil
		})
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
