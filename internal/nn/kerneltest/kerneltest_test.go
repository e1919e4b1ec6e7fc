package kerneltest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// gridShapes covers the tile boundaries of the blocked kernels: sizes
// below, at and just past the 64-wide tile and the 2×4 register tile,
// degenerate vectors, and the shapes the pilot models actually use
// (im2col conv panels and dense heads).
var gridShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 1},
	{2, 4, 4}, // exactly one 2×4 register tile
	{3, 5, 7}, // all-remainder paths
	{5, 3, 9},
	{8, 16, 8},
	{16, 25, 32},
	{63, 10, 63}, // one tile minus the edge
	{64, 12, 64}, // exact tile
	{65, 9, 65},  // tile plus remainder row/col
	{31, 64, 70},
	{130, 33, 5},  // many row tiles, tiny n
	{4, 200, 4},   // deep k, k%4 == 0
	{4, 203, 4},   // deep k with k-remainder
	{560, 25, 8},  // conv1 im2col panel from the pilot model
	{40, 576, 50}, // dense head panel
}

var gridWorkers = []int{1, 2, 3, 4, 8}

// TestGEMMGrid cross-checks every optimized kernel against its naive
// reference over the full shape × worker grid.
func TestGEMMGrid(t *testing.T) {
	defer nn.SetMaxWorkers(nn.SetMaxWorkers(1))
	for _, v := range Variants() {
		for _, w := range gridWorkers {
			nn.SetMaxWorkers(w)
			for si, s := range gridShapes {
				if err := CheckCase(v, s[0], s[1], s[2], int64(1000*si+w)); err != nil {
					t.Errorf("workers=%d: %v", w, err)
				}
			}
		}
	}
}

// TestGEMMDeterminism asserts the kernels are bitwise identical across
// repeated runs and across worker counts: each output element is
// accumulated in a fixed k-order by exactly one goroutine, so the
// result may not depend on scheduling at all. The shapes cover partial
// 4-row blocks and 8-column panels of the AVX2 A×Bᵀ kernel, several k
// blocks of the row kernels ({9, 2003, 25}), and the pilot's conv2 GEMM.
func TestGEMMDeterminism(t *testing.T) {
	defer nn.SetMaxWorkers(nn.SetMaxWorkers(1))
	for _, v := range Variants() {
		for _, s := range [][3]int{{65, 33, 65}, {130, 25, 8}, {16, 576, 50}, {9, 2003, 25}, {4480, 72, 16}} {
			rng := rand.New(rand.NewSource(42))
			ar, ac := v.AShape(s[0], s[1], s[2])
			br, bc := v.BShape(s[0], s[1], s[2])
			a := RandTensor(rng, ar, ac)
			b := RandTensor(rng, br, bc)

			nn.SetMaxWorkers(1)
			base, err := v.Opt(a, b)
			if err != nil {
				t.Fatalf("%s: %v", v.Name, err)
			}
			for _, w := range []int{1, 2, 3, 5, 8, 16} {
				nn.SetMaxWorkers(w)
				for run := 0; run < 3; run++ {
					got, err := v.Opt(a, b)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", v.Name, w, err)
					}
					for i := range got.Data {
						if got.Data[i] != base.Data[i] {
							t.Fatalf("%s %v workers=%d run=%d: element %d differs bitwise: %v vs %v",
								v.Name, s, w, run, i, got.Data[i], base.Data[i])
						}
					}
				}
			}
		}
	}
}

// quantGridShapes stresses the SWAR kernel's own boundaries on top of
// the float grid: the 3-column lane packing (n % 3), the 4-group outer
// unroll (n % 12), the 16-step lane-spill block and the 4-step inner
// unroll (k % 16, k % 4), plus the dense-head shapes the quantized
// pilot actually runs.
var quantGridShapes = [][3]int{
	{1, 1, 1},
	{1, 4, 2},   // tail columns only, no packed group
	{2, 16, 3},  // exactly one packed group, one spill block
	{3, 17, 4},  // k-remainder after the spill block
	{4, 15, 11}, // k below one block, n % 3 == 2
	{5, 33, 12}, // exactly the 4-group unroll
	{8, 64, 13}, // 4-group unroll plus one tail column
	{16, 25, 8}, // conv-panel shape, 2 groups + 2 tails
	{32, 100, 24},
	{7, 203, 36},  // deep k with k%4 remainder, 12 groups
	{32, 576, 50}, // dense head panel
	{1, 3136, 26},
}

// TestQuantGrid cross-checks the packed int8 kernel bitwise against the
// naive int8 reference and within the analytic bound of the float64
// ground truth, over shapes × workers.
func TestQuantGrid(t *testing.T) {
	defer nn.SetMaxWorkers(nn.SetMaxWorkers(1))
	for _, v := range QuantVariants() {
		for _, w := range gridWorkers {
			nn.SetMaxWorkers(w)
			for si, s := range quantGridShapes {
				if err := CheckQuantCase(v, s[0], s[1], s[2], int64(9000*si+w)); err != nil {
					t.Errorf("workers=%d: %v", w, err)
				}
			}
		}
	}
}

// TestQuantDeterminism asserts the quantized kernel is bitwise stable
// across runs and worker counts: every stage (rounding, integer GEMM,
// dequantization) is exact, so there is no tolerance to hide behind.
// {5, 10000, 50} spans several weight blocks of the AVX2 kernel.
func TestQuantDeterminism(t *testing.T) {
	defer nn.SetMaxWorkers(nn.SetMaxWorkers(1))
	for _, v := range QuantVariants() {
		for _, s := range [][3]int{{32, 100, 24}, {5, 33, 12}, {16, 576, 50}, {5, 10000, 50}} {
			rng := rand.New(rand.NewSource(77))
			a := RandTensor(rng, s[0], s[1])
			b := RandTensor(rng, s[2], s[1])
			q, err := nn.QuantizeTransB(b)
			if err != nil {
				t.Fatal(err)
			}
			nn.SetMaxWorkers(1)
			base, err := v.Opt(a, q)
			if err != nil {
				t.Fatalf("%s: %v", v.Name, err)
			}
			for _, w := range []int{1, 2, 3, 5, 8} {
				nn.SetMaxWorkers(w)
				for run := 0; run < 3; run++ {
					got, err := v.Opt(a, q)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", v.Name, w, err)
					}
					for i := range got.Data {
						if got.Data[i] != base.Data[i] {
							t.Fatalf("%s %v workers=%d run=%d: element %d differs bitwise: %v vs %v",
								v.Name, s, w, run, i, got.Data[i], base.Data[i])
						}
					}
				}
			}
		}
	}
}

// buildTinyModel constructs a small but representative conv+dense model
// (exercising the im2col GEMM, fused epilogues, dropout and the
// first-layer backward skip) with all randomness drawn from seed.
func buildTinyModel(t *testing.T, seed int64) nn.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	conv, err := nn.NewConv2D(1, 4, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := nn.NewDropout(0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nn.NewSequential(
		conv, &nn.ReLU{},
		&nn.Flatten{},
		nn.NewDense(4*7*7, 16, rng), &nn.ReLU{},
		drop,
		nn.NewDense(16, 2, rng), &nn.Tanh{},
	)
}

func syntheticDataset(seed int64, n int) nn.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := nn.NewTensor(n, 1, 15, 15)
	y := nn.NewTensor(n, 2)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 0.5)
	return nn.Dataset{X: x, Y: y}
}

// trainOnce runs a short training job and returns the flat weight
// vectors of every parameter.
func trainOnce(t *testing.T, seed int64) ([][]float64, nn.History) {
	t.Helper()
	model := buildTinyModel(t, seed)
	opt, err := nn.NewAdam(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nn.TrainConfig{Epochs: 3, BatchSize: 8, ValFrac: 0.25, Seed: seed, ClipGrad: 5}
	hist, err := nn.Train(model, syntheticDataset(seed+7, 48), nn.MSE{}, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var weights [][]float64
	for _, p := range model.Params() {
		weights = append(weights, append([]float64(nil), p.W.Data...))
	}
	return weights, hist
}

// TestTrainingDeterminism asserts the full training loop — data split,
// shuffling, dropout, conv/dense kernels, Adam — is bit-identical for
// two runs with the same seed and worker count, and that the result is
// also independent of the worker count.
func TestTrainingDeterminism(t *testing.T) {
	defer nn.SetMaxWorkers(nn.SetMaxWorkers(1))

	nn.SetMaxWorkers(2)
	w1, h1 := trainOnce(t, 11)
	w2, h2 := trainOnce(t, 11)
	if h1.FinalTrainLoss() != h2.FinalTrainLoss() {
		t.Fatalf("final train loss differs between identical runs: %v vs %v",
			h1.FinalTrainLoss(), h2.FinalTrainLoss())
	}
	compareWeights(t, "same seed, same workers", w1, w2)

	nn.SetMaxWorkers(7)
	w3, _ := trainOnce(t, 11)
	compareWeights(t, "same seed, different workers", w1, w3)
}

func compareWeights(t *testing.T, label string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count differs: %d vs %d", label, len(a), len(b))
	}
	for pi := range a {
		if len(a[pi]) != len(b[pi]) {
			t.Fatalf("%s: param %d size differs", label, pi)
		}
		for i := range a[pi] {
			if a[pi][i] != b[pi][i] {
				t.Fatalf("%s: param %d element %d differs bitwise: %v vs %v",
					label, pi, i, a[pi][i], b[pi][i])
			}
		}
	}
}

// TestMatMulTransBBitwise: every A×Bᵀ output is the sequential tap sum
// from +0, as in the naive reference, so the two agree bit for bit with
// B's panels packed across 1–3 workers, on the benchmarked shapes (the
// Dense dx product 32×64×2240 among them) and on one whose last panel
// is partial.
func TestMatMulTransBBitwise(t *testing.T) {
	defer nn.SetMaxWorkers(nn.SetMaxWorkers(1))
	for _, s := range append(gemmBenchShapes["MatMulTransB"], [3]int{12, 40, 2237}) {
		rng := rand.New(rand.NewSource(int64(s[0] + s[2])))
		a := RandTensor(rng, s[0], s[1])
		b := RandTensor(rng, s[2], s[1])
		want, err := nn.MatMulTransBRef(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 3; w++ {
			nn.SetMaxWorkers(w)
			got, err := nn.MatMulTransB(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%v workers=%d: element %d is %v, reference %v", s, w, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// gemmBenchShapes lists, per layout, the logical (m, k, n) problems
// BenchmarkGEMM times: the conv im2col and dense-head panels, then the
// pilot's hot GEMMs in training (the 64×48 inferred pilot at batch 32:
// conv1 and conv2 forward, weight gradients and input gradients, and its
// 2240→64 Dense, whose biased forward shares MatMul's row kernel).
var gemmBenchShapes = map[string][][3]int{
	"MatMul":       {{560, 25, 8}, {64, 576, 50}, {4480, 16, 72}, {32, 2240, 64}},
	"MatMulTransA": {{560, 25, 8}, {64, 576, 50}, {8, 21120, 25}, {16, 4480, 72}, {2240, 32, 64}},
	"MatMulTransB": {{560, 25, 8}, {64, 576, 50}, {21120, 25, 8}, {4480, 72, 16}, {32, 64, 2240}},
}

// BenchmarkGEMM measures the optimized kernels on gemmBenchShapes, the
// layer shapes of the end-to-end experiments.
func BenchmarkGEMM(b *testing.B) {
	for _, v := range Variants() {
		for _, s := range gemmBenchShapes[v.Name] {
			rng := rand.New(rand.NewSource(1))
			ar, ac := v.AShape(s[0], s[1], s[2])
			br, bc := v.BShape(s[0], s[1], s[2])
			x := RandTensor(rng, ar, ac)
			y := RandTensor(rng, br, bc)
			b.Run(benchName(v.Name, s), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := v.Opt(x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchName(name string, s [3]int) string {
	return name + "/" +
		itoa(s[0]) + "x" + itoa(s[1]) + "x" + itoa(s[2])
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
