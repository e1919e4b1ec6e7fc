package nn

import (
	"math"
	"math/rand"
	"testing"
)

// These tests pin down the delta-merge properties the gossip overlay
// leans on. Plain float64 addition does not associate, so applying the
// same delta set in arrival order is NOT order-independent in general —
// which is exactly why gossip merges in a canonical order. The table
// here proves both directions: canonical-order merges of the same set
// are bit-identical regardless of how the set was delivered, and the
// idempotence/rejection edges (re-applied parcels, mismatched shapes)
// behave the way a store-and-forward protocol needs.

// deltaTestModel builds a small dense stack with a fixed seed.
func deltaTestModel(seed int64) Model {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(NewDense(6, 8, rng), &ReLU{}, NewDense(8, 2, rng))
}

// bitsEqual compares two models' weights bit-for-bit and reports the first
// mismatch.
func bitsEqual(t *testing.T, got, want Model) {
	t.Helper()
	gp, wp := got.Params(), want.Params()
	if len(gp) != len(wp) {
		t.Fatalf("param count %d vs %d", len(gp), len(wp))
	}
	for i := range gp {
		for j := range gp[i].W.Data {
			g, w := gp[i].W.Data[j], wp[i].W.Data[j]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("param %d index %d: got %x (%g), want %x (%g)",
					i, j, math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	}
}

// randomDelta builds a delta shaped for m with adversarially scaled
// entries (mixed binades force rounding differences under reordering).
func randomDelta(m Model, rng *rand.Rand) *WeightDelta {
	params := m.Params()
	d := &WeightDelta{Tensors: make([]*Tensor, len(params))}
	for i, p := range params {
		t := NewTensor(p.W.Shape...)
		for j := range t.Data {
			t.Data[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-30)
		}
		d.Tensors[i] = t
	}
	return d
}

// applySet installs base weights into m and applies deltas in the given
// permutation order.
func applySet(t *testing.T, m Model, base [][]float64, deltas []*WeightDelta, order []int) {
	t.Helper()
	for i, p := range m.Params() {
		copy(p.W.Data, base[i])
	}
	for _, i := range order {
		if err := ApplyDelta(m, deltas[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func snapshot(m Model) [][]float64 {
	params := m.Params()
	out := make([][]float64, len(params))
	for i, p := range params {
		v := make([]float64, len(p.W.Data))
		copy(v, p.W.Data)
		out[i] = v
	}
	return out
}

// TestApplyDeltaCanonicalOrderBitIdentical delivers the same delta set
// in shuffled arrival orders, then merges each replica's set in the one
// canonical order — every replica must land on identical bits. As a
// control it also documents why the canonical order exists: at least
// one shuffled-order direct merge differs from the canonical result at
// the bit level (float addition does not associate).
func TestApplyDeltaCanonicalOrderBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ref := deltaTestModel(5)
	base := snapshot(ref)
	deltas := make([]*WeightDelta, 8)
	for i := range deltas {
		deltas[i] = randomDelta(ref, rng)
	}
	canonical := make([]int, len(deltas))
	for i := range canonical {
		canonical[i] = i
	}
	applySet(t, ref, base, deltas, canonical)
	want := snapshot(ref)

	m := deltaTestModel(5)
	driftSeen := false
	for trial := 0; trial < 6; trial++ {
		arrival := rng.Perm(len(deltas))
		// Direct arrival-order merge: may drift (the control).
		applySet(t, m, base, deltas, arrival)
		got := snapshot(m)
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					driftSeen = true
				}
			}
		}
		// Canonical re-merge of the delivered set: must be exact. The
		// arrival permutation only determined *when* each delta landed in
		// the replica's set, never the merge order.
		applySet(t, m, base, deltas, canonical)
		for i, p := range m.Params() {
			for j := range p.W.Data {
				if math.Float64bits(p.W.Data[j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("trial %d: canonical merge diverged at param %d[%d]", trial, i, j)
				}
			}
		}
	}
	if !driftSeen {
		t.Log("note: no arrival-order drift observed; canonical order is still the only guarantee")
	}
}

// TestApplyDeltaIdempotenceTable drives the commutativity/idempotence
// edges one at a time: a re-applied (duplicate) delta is NOT a no-op —
// the store layer must deduplicate — while pairwise swaps of
// disjoint-support deltas commute exactly.
func TestApplyDeltaIdempotenceTable(t *testing.T) {
	ref := deltaTestModel(11)
	base := snapshot(ref)

	// Disjoint-support deltas commute bit-exactly (each scalar sees one
	// addend, so ordering cannot round differently).
	a, b := randomDelta(ref, rand.New(rand.NewSource(1))), randomDelta(ref, rand.New(rand.NewSource(2)))
	for i := range a.Tensors {
		for j := range a.Tensors[i].Data {
			if j%2 == 0 {
				a.Tensors[i].Data[j] = 0
			} else {
				b.Tensors[i].Data[j] = 0
			}
		}
	}
	m1, m2 := deltaTestModel(11), deltaTestModel(11)
	applySet(t, m1, base, []*WeightDelta{a, b}, []int{0, 1})
	applySet(t, m2, base, []*WeightDelta{a, b}, []int{1, 0})
	bitsEqual(t, m1, m2)

	// Duplicate application moves the weights again: Put-level dedup is
	// load-bearing, not belt-and-braces.
	d := randomDelta(ref, rand.New(rand.NewSource(3)))
	applySet(t, m1, base, []*WeightDelta{d}, []int{0})
	once := snapshot(m1)
	if err := ApplyDelta(m1, d); err != nil {
		t.Fatal(err)
	}
	same := true
	for i, p := range m1.Params() {
		for j := range p.W.Data {
			if math.Float64bits(p.W.Data[j]) != math.Float64bits(once[i][j]) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("re-applying a nonzero delta was a no-op; the dedup test is vacuous")
	}
}

// TestApplyDeltaShapeRejectionMidStream verifies a malformed delta in a
// merge sequence rejects atomically before touching weights, so a
// replica cannot be half-corrupted by one bad parcel.
func TestApplyDeltaShapeRejectionMidStream(t *testing.T) {
	m := deltaTestModel(31)
	before := snapshot(m)
	good := randomDelta(m, rand.New(rand.NewSource(1)))

	rng := rand.New(rand.NewSource(2))
	other := NewSequential(NewDense(6, 4, rng), NewDense(4, 2, rng))
	bad := randomDelta(other, rng)

	if err := ApplyDelta(m, bad); err == nil {
		t.Fatal("mismatched delta accepted")
	}
	for i, p := range m.Params() {
		for j := range p.W.Data {
			if math.Float64bits(p.W.Data[j]) != math.Float64bits(before[i][j]) {
				t.Fatal("rejected delta still moved weights")
			}
		}
	}
	// Wrong tensor count rejects too.
	truncated := &WeightDelta{Tensors: good.Tensors[:1]}
	if err := ApplyDelta(m, truncated); err == nil {
		t.Fatal("truncated delta accepted")
	}
	if err := ApplyDelta(m, nil); err == nil {
		t.Fatal("nil delta accepted")
	}
	// And the good one still applies cleanly afterwards.
	if err := ApplyDelta(m, good); err != nil {
		t.Fatal(err)
	}
}
