package fed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/edge"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/pilot"
)

// The reference below is the export path Fleet.Export replaced, kept
// verbatim: nn's DeltaFrom with its fixup scan, WeightDelta.Scale, the
// tensors handed to the codec, and the raw codec's copy of them.

type refDeltaFixup struct {
	Param, Index int
	Value        float64
}

type refWeightDelta struct {
	Tensors []*nn.Tensor
	Fixups  []refDeltaFixup
}

func refCheckParamsMatch(a, b []*nn.Param) error {
	if len(a) != len(b) {
		return fmt.Errorf("nn: delta: %d params vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].W.SameShape(b[i].W) {
			return fmt.Errorf("nn: delta: param %d (%s) shape %v vs %v",
				i, a[i].Name, a[i].W.Shape, b[i].W.Shape)
		}
	}
	return nil
}

func refDeltaFrom(m, base nn.Model) (*refWeightDelta, error) {
	mp, bp := m.Params(), base.Params()
	if err := refCheckParamsMatch(mp, bp); err != nil {
		return nil, err
	}
	d := &refWeightDelta{Tensors: make([]*nn.Tensor, len(mp))}
	for i := range mp {
		t := nn.NewTensor(mp[i].W.Shape...)
		for j, a := range mp[i].W.Data {
			b := bp[i].W.Data[j]
			t.Data[j] = a - b
			if b+t.Data[j] != a {
				d.Fixups = append(d.Fixups, refDeltaFixup{Param: i, Index: j, Value: a})
			}
		}
		d.Tensors[i] = t
	}
	return d, nil
}

func (d *refWeightDelta) Scale(alpha float64) {
	for _, t := range d.Tensors {
		for j := range t.Data {
			t.Data[j] *= alpha
		}
	}
	d.Fixups = nil
}

func refRawEncodeDelta(delta [][]float64, residual [][]float64) Encoded {
	var n int64
	out := make([][]float64, len(delta))
	for i, t := range delta {
		n += int64(len(t))
		cp := make([]float64, len(t))
		copy(cp, t)
		out[i] = cp
	}
	return Encoded{WireBytes: 8 * n, Values: out}
}

func refExport(c Codec, local, base nn.Model, scale float64, residual [][]float64) (Encoded, error) {
	delta, err := refDeltaFrom(local, base)
	if err != nil {
		return Encoded{}, err
	}
	delta.Scale(scale)
	vals := make([][]float64, len(delta.Tensors))
	for i, t := range delta.Tensors {
		vals[i] = t.Data
	}
	if _, ok := c.(rawCodec); ok {
		return refRawEncodeDelta(vals, residual), nil
	}
	return c.EncodeDelta(vals, residual), nil
}

// adversarialPairs are (local, base) scalars where subtraction and
// scaling round, overflow, cancel or propagate specials.
var adversarialPairs = [][2]float64{
	{0, math.Copysign(0, -1)},
	{math.Copysign(0, -1), 0},
	{math.Copysign(0, -1), math.Copysign(0, -1)},
	{5e-324, -5e-324},                     // smallest subnormals
	{3e-310, -2.5e-308},                   // subnormal against normal
	{2.2250738585072014e-308, 2.225e-308}, // difference is subnormal
	{math.Inf(1), 1},
	{1, math.Inf(-1)},
	{math.Inf(1), math.Inf(1)}, // Inf - Inf is NaN
	{math.NaN(), 0.5},
	{0.5, math.Float64frombits(0x7ff8000000000bad)}, // NaN with a payload
	{1 + 0x1p-52, 1},                                // catastrophic cancellation
	{1e16 + 2, 1e16},
	{0.3, 0.1},
	{-7.1, 7.0999999999999996},
	{math.MaxFloat64, -math.MaxFloat64}, // overflows to +Inf
	{1e308, -1e308},
}

func exportTestPilots(t *testing.T) (*pilot.Pilot, *pilot.Pilot) {
	t.Helper()
	cfg := pilot.DefaultConfig(pilot.Linear, 16, 12, 1)
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseUnits = 2, 4, 8
	local, err := pilot.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := pilot.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return local, base
}

// fillExportPair writes random (local, base) weights, from small
// training-like steps to values spread over many binades, then plants the
// adversarial pairs at the head of every tensor and at the last weight
// of the last one.
func fillExportPair(local, base *pilot.Pilot, rng *rand.Rand) {
	lp, bp := local.Model().Params(), base.Model().Params()
	for i := range lp {
		l, b := lp[i].W.Data, bp[i].W.Data
		for j := range l {
			b[j] = rng.NormFloat64()
			switch rng.Intn(3) {
			case 0:
				l[j] = b[j] + 1e-3*rng.NormFloat64()
			case 1:
				l[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(80)-40)
			default:
				l[j] = b[j]
			}
		}
		for k, pair := range adversarialPairs[:min(len(adversarialPairs), len(l))] {
			l[k], b[k] = pair[0], pair[1]
		}
	}
	last := len(lp) - 1
	pair := adversarialPairs[11+rng.Intn(2)]
	n := len(lp[last].W.Data) - 1
	lp[last].W.Data[n], bp[last].W.Data[n] = pair[0], pair[1]
}

func sameBits(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d tensors vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("tensor %d: %d values vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("tensor %d[%d]: %x (%g) vs %x (%g)", i, j,
					math.Float64bits(a[i][j]), a[i][j], math.Float64bits(b[i][j]), b[i][j])
			}
		}
	}
	return nil
}

// oneBacking reports whether vals are consecutive, capacity-limited
// windows of one backing array, in tensor order: the single allocation
// Export promises, where a codec that appends to one tensor cannot
// overwrite the next.
func oneBacking(vals [][]float64) error {
	for i, v := range vals {
		if len(v) == 0 || cap(v) != len(v) {
			return fmt.Errorf("tensor %d: len %d cap %d", i, len(v), cap(v))
		}
		if i == 0 {
			continue
		}
		prev := vals[i-1]
		if unsafe.Pointer(&v[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*8) {
			return fmt.Errorf("tensor %d does not start where tensor %d ends", i, i-1)
		}
	}
	return nil
}

func cloneVals(v [][]float64) [][]float64 {
	out := make([][]float64, len(v))
	for i, t := range v {
		out[i] = append([]float64(nil), t...)
	}
	return out
}

// TestExportMatchesDeltaFromBitwise pins Fleet.Export to the path it
// replaced — DeltaFrom, Scale, then the codec's copy — bit for bit, on
// random weights and on pairs that round, cancel, overflow or carry ±0,
// subnormals, ±Inf and NaN. It runs every codec, top-k with a live
// error-feedback residual, at scale 1 (the star) and at shard weights
// (gossip), and checks the raw upload is one backing slice in tensor
// order. A base that does not match the model is an error, not a panic.
func TestExportMatchesDeltaFromBitwise(t *testing.T) {
	local, basePilot := exportTestPilots(t)
	for _, profile := range Profiles() {
		codec, err := NewCodec(profile, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		f := &Fleet{Codec: codec, name: "fed"}
		for trial, scale := range []float64{1, 1.0 / 3, 0.2, 0.37, 1.0 / 7} {
			rng := rand.New(rand.NewSource(int64(100*trial + len(profile))))
			fillExportPair(local, basePilot, rng)
			w := &Worker{Local: local, params: local.Model().Params(), Base: Snapshot(basePilot)}
			var refResidual [][]float64
			if codec.Sparsifies() {
				refResidual = make([][]float64, len(w.params))
				for i, p := range w.params {
					refResidual[i] = make([]float64, len(p.W.Data))
					for j := range refResidual[i] {
						refResidual[i][j] = 1e-4 * rng.NormFloat64()
					}
				}
				w.residual = cloneVals(refResidual)
			}
			want, err := refExport(codec, local.Model(), basePilot.Model(), scale, refResidual)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Export(w, scale)
			if err != nil {
				t.Fatal(err)
			}
			if got.WireBytes != want.WireBytes {
				t.Fatalf("%s scale %g: %d wire bytes, reference %d", profile, scale, got.WireBytes, want.WireBytes)
			}
			if err := sameBits(got.Values, want.Values); err != nil {
				t.Fatalf("%s scale %g: values differ from the reference: %v", profile, scale, err)
			}
			if err := sameBits(w.residual, refResidual); err != nil {
				t.Fatalf("%s scale %g: residual differs from the reference: %v", profile, scale, err)
			}
			if profile == "none" {
				if err := oneBacking(got.Values); err != nil {
					t.Fatalf("scale %g: raw upload is not one backing slice in tensor order: %v", scale, err)
				}
			}
		}

		good := Snapshot(basePilot)
		short := cloneVals(good)
		short[len(short)-1] = short[len(short)-1][1:]
		for name, base := range map[string][][]float64{
			"never started":   nil,
			"missing tensor":  good[:len(good)-1],
			"extra tensor":    append(cloneVals(good), []float64{1}),
			"short last":      short,
			"empty first one": append([][]float64{{}}, good[1:]...),
		} {
			w := &Worker{Local: local, params: local.Model().Params(), Base: base}
			if _, err := f.Export(w, 1); err == nil {
				t.Fatalf("%s: Export accepted a base that does not match the model (%s)", profile, name)
			}
		}
	}
}

func testPilot(t *testing.T) *pilot.Pilot {
	t.Helper()
	p, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNewFleetClonesBitwise: every worker's pilot starts as the bits of
// the pilot the fleet was built from, not a fresh initialization of its
// config, and shares no param backing array with it or another worker.
func TestNewFleetClonesBitwise(t *testing.T) {
	cfg := FleetConfig{Workers: 4, Rounds: 1, LocalEpochs: 1, BatchSize: 1, Seed: 1}
	shards, err := ShardSamples(fedSamples(t, 8), cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	proto := testPilot(t)
	for _, p := range proto.Model().Params() {
		for j := range p.W.Data {
			p.W.Data[j] = p.W.Data[j]/2 + float64(j)
		}
	}
	f, err := NewFleet("fed", 1, &cfg, Deps{Net: netem.NewNet(1), Hub: edge.NewHub(), Start: testStart}, proto, shards)
	if err != nil {
		t.Fatal(err)
	}
	want := Snapshot(proto)
	owner := map[*float64]string{}
	claim := func(who string, p *pilot.Pilot) {
		for i, prm := range p.Model().Params() {
			if prev, ok := owner[&prm.W.Data[0]]; ok {
				t.Fatalf("%s param %d shares its backing array with %s", who, i, prev)
			}
			owner[&prm.W.Data[0]] = fmt.Sprintf("%s param %d", who, i)
		}
	}
	claim("prototype", proto)
	for _, w := range f.Workers {
		if err := sameBits(Snapshot(w.Local), want); err != nil {
			t.Fatalf("worker %d does not start from the prototype's weights: %v", w.Idx, err)
		}
		claim(fmt.Sprintf("worker %d", w.Idx), w.Local)
	}
}

// TestNewFleetRequiresHub: the hub is the one record of which workers a
// round has, so a fleet without one is refused, not run with every
// worker taken as live.
func TestNewFleetRequiresHub(t *testing.T) {
	cfg := FleetConfig{Workers: 2, Rounds: 1, LocalEpochs: 1, BatchSize: 1, Seed: 1}
	shards, err := ShardSamples(fedSamples(t, 4), cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFleet("fed", 1, &cfg, Deps{Net: netem.NewNet(1), Start: testStart}, testPilot(t), shards); err == nil {
		t.Fatal("NewFleet accepted deps without a hub")
	}
}

// TestTrainPoolDeterministic drives Fleet.Train's bounded pool at the
// test's GOMAXPROCS (verify.sh runs it at 1, 2 and 3): every worker trains
// exactly once, no more than GOMAXPROCS at a time, the reported error is
// the first in slice order whichever worker fails first in time, and the
// costs and the clock match the slice whatever the schedule.
func TestTrainPoolDeterministic(t *testing.T) {
	cfg := FleetConfig{Workers: 9, Rounds: 1, LocalEpochs: 2, BatchSize: 1, Seed: 1}
	samples := fedSamples(t, 18)
	shards, err := ShardSamples(samples, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet("fed", 1, &cfg, Deps{Net: netem.NewNet(1), Hub: edge.NewHub(), Start: testStart}, testPilot(t), shards)
	if err != nil {
		t.Fatal(err)
	}
	workers := []*Worker{f.Workers[8], f.Workers[1], f.Workers[5], f.Workers[3], f.Workers[6], f.Workers[0]}
	failAt := map[int]error{5: errors.New("worker five"), 6: errors.New("worker six")}
	var calls [9]atomic.Int32
	var inflight, peak atomic.Int32
	train := func(fail bool) func(*Worker) error {
		return func(w *Worker) error {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched() // let any other trainer start while this one runs
			calls[w.Idx].Add(1)
			if fail {
				return failAt[w.Idx]
			}
			return nil
		}
	}
	if _, err := f.Train(nil, 0, workers, train(true)); !errors.Is(err, failAt[5]) {
		t.Fatalf("Train reported %v, want worker 5's error (the first failure in slice order)", err)
	}
	for _, w := range workers {
		if got := calls[w.Idx].Load(); got != 1 {
			t.Fatalf("worker %d trained %d times, want once", w.Idx, got)
		}
	}
	if p := int(peak.Load()); p > runtime.GOMAXPROCS(0) {
		t.Fatalf("%d workers trained at once, pool bound is GOMAXPROCS %d", p, runtime.GOMAXPROCS(0))
	}

	before := f.Clock.Now()
	costs, err := f.Train(nil, 0, workers, train(false))
	if err != nil {
		t.Fatal(err)
	}
	var slowest time.Duration
	for i, c := range costs {
		w := f.Workers[i]
		trained := calls[i].Load() == 2
		if want := time.Duration(float64(len(w.shard)*cfg.LocalEpochs) * float64(cfg.PerSampleCost) / w.speed); trained && c != want {
			t.Fatalf("worker %d cost %v, want %v", i, c, want)
		}
		if !trained && c != 0 {
			t.Fatalf("untrained worker %d cost %v", i, c)
		}
		slowest = max(slowest, c)
	}
	if got := f.Clock.Now().Sub(before); got != slowest {
		t.Fatalf("clock advanced %v, want the slowest cost %v", got, slowest)
	}
}
