package fed

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
)

// TestFedRegionTopology pins the region assignment: contiguous blocks,
// balanced to within one worker, covering every region, and independent of
// who participates in a round.
func TestFedRegionTopology(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16, 100, 1000} {
		cfg := Config{FleetConfig: FleetConfig{Workers: workers}}
		nR := cfg.regions()
		want := int(math.Ceil(math.Sqrt(float64(workers))))
		if nR != want {
			t.Fatalf("workers=%d: regions() = %d, want ceil(sqrt) = %d", workers, nR, want)
		}
		counts := make([]int, nR)
		prev := 0
		for idx := 0; idx < workers; idx++ {
			reg := cfg.regionOf(idx)
			if reg < prev || reg >= nR {
				t.Fatalf("workers=%d: regionOf(%d) = %d (prev %d, regions %d)", workers, idx, reg, prev, nR)
			}
			prev = reg
			counts[reg]++
		}
		min, max := workers, 0
		for reg, n := range counts {
			if n == 0 {
				t.Fatalf("workers=%d: region %d empty", workers, reg)
			}
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("workers=%d: region sizes span [%d, %d], want balanced within 1", workers, min, max)
		}
	}
	// Explicit Regions overrides, clamped to the fleet.
	if got := (Config{FleetConfig: FleetConfig{Workers: 10}, Regions: 4}).regions(); got != 4 {
		t.Fatalf("explicit regions = %d, want 4", got)
	}
	if got := (Config{FleetConfig: FleetConfig{Workers: 3}, Regions: 50}).regions(); got != 3 {
		t.Fatalf("over-provisioned regions = %d, want clamp to 3", got)
	}
}

// TestFedHierarchicalBitIdenticalToFlat is the tentpole's correctness
// acceptance: on the same fault-free fleet (identical participant set every
// round), hierarchical aggregation must leave the global model bit-identical
// to flat FedAvg — the topology changes transport, not arithmetic.
func TestFedHierarchicalBitIdenticalToFlat(t *testing.T) {
	run := func(hier bool) ([]float64, Result, obs.Snapshot) {
		cfg := testCfg()
		cfg.Workers = 5
		cfg.Rounds = 3
		cfg.Seed = 9
		cfg.Compress = "topk" // residual path must match bit-for-bit too
		cfg.Hierarchical = hier
		deps := testDeps(t, "", 9)
		r := newTestRun(t, cfg, deps, 60)
		res, err := r.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return fedWeights(r), res, deps.Obs.Metrics.Snapshot()
	}

	flatW, flatRes, _ := run(false)
	hierW, hierRes, hierSnap := run(true)

	if len(flatW) != len(hierW) || len(flatW) == 0 {
		t.Fatalf("weight counts: flat %d, hier %d", len(flatW), len(hierW))
	}
	for i := range flatW {
		if math.Float64bits(flatW[i]) != math.Float64bits(hierW[i]) {
			t.Fatalf("weight %d differs: flat %x vs hier %x (%g vs %g)",
				i, math.Float64bits(flatW[i]), math.Float64bits(hierW[i]), flatW[i], hierW[i])
		}
	}
	for i, rr := range hierRes.Rounds {
		fr := flatRes.Rounds[i]
		if len(rr.Participants) != len(fr.Participants) {
			t.Fatalf("round %d participants: flat %v vs hier %v", i, fr.Participants, rr.Participants)
		}
	}
	// The WAN sees dense per-region partials instead of per-worker uploads,
	// and the edge->aggregator leg is billed separately.
	if hierSnap.Counters[`fed_bytes_on_wire_total{dir="region"}`] <= 0 {
		t.Fatal("hierarchical run billed no region-leg bytes")
	}
	if hierSnap.Counters[`fed_bytes_on_wire_total{dir="upload"}`] <= 0 {
		t.Fatal("hierarchical run billed no aggregator->cloud partials")
	}
}

// TestFedDroppedWorkerClearsResidual is the regression test for the stale
// error-feedback bug: a worker dropped from a round (its device went
// offline) must discard its top-k residual, not replay it after rejoining —
// the accumulator was built against a global model the fleet has moved
// past. This test fails on the pre-fix Run, where drop() left the residual
// in place.
func TestFedDroppedWorkerClearsResidual(t *testing.T) {
	cfg := testCfg()
	cfg.Workers = 3
	cfg.Rounds = 2
	cfg.Compress = "topk" // only sparsifying codecs keep residuals

	deps := testDeps(t, "", 11)
	var r *Run
	deps.AfterRound = func(round int, _ obs.SpanContext) error {
		if round != 0 {
			return nil
		}
		// Knock worker 0's device offline between rounds: the other
		// daemons check in, worker 0 stays silent, and sweeps a heartbeat
		// window apart evict it. Round 1 drops it at the broadcast stage.
		at := testStart.Add(24 * time.Hour)
		for _, t := range []time.Time{at, at.Add(edge.HeartbeatWindow)} {
			for _, w := range r.Workers[1:] {
				if err := deps.Hub.Heartbeat(w.deviceID, t); err != nil {
					return err
				}
			}
			deps.Hub.SweepHeartbeats(t)
		}
		return nil
	}
	r = newTestRun(t, cfg, deps, 45)

	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].Dropped != nil {
		t.Fatalf("round 0 dropped %v, want none", res.Rounds[0].Dropped)
	}
	if got := res.Rounds[1].Dropped; len(got) != 1 || got[0] != 0 {
		t.Fatalf("round 1 dropped %v, want [0]", got)
	}
	// Round 0's sparsified upload seeded the residual; the drop must have
	// cleared it. Survivors keep theirs.
	if r.Workers[0].residual != nil {
		t.Fatal("dropped worker kept its stale error-feedback residual")
	}
	for _, w := range r.Workers[1:] {
		if w.residual == nil {
			t.Fatalf("surviving worker %d lost its residual", w.Idx)
		}
	}
}

// TestFedIngressSerialHierBeatsFlat exercises the receiver-occupancy model:
// when uploads serialize at their receiver, funneling N workers through one
// cloud ingress must cost strictly more round wall than spreading them over
// sqrt(N) regional aggregators that drain in parallel.
func TestFedIngressSerialHierBeatsFlat(t *testing.T) {
	run := func(hier bool) Result {
		cfg := testCfg()
		cfg.Workers = 64
		cfg.Rounds = 1
		cfg.Seed = 4
		cfg.Hierarchical = hier
		cfg.IngressSerial = true
		cfg.SyntheticLocal = true
		cfg.Container = "" // no checkpoint churn
		r := newTestRun(t, cfg, testDeps(t, "", 4), 80)
		res, err := r.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := run(false)
	hier := run(true)
	if hier.MeanRoundWall >= flat.MeanRoundWall {
		t.Fatalf("hierarchical round wall %v not below flat %v under serialized ingress",
			hier.MeanRoundWall, flat.MeanRoundWall)
	}
}

// TestFed1kWorkerTraceByteIdentical is the fleet-scale determinism
// acceptance: two same-seed 1000-worker runs — synthetic local updates, a
// scripted fault plan, heartbeat playback on the event scheduler — must
// export byte-identical traces.
func TestFed1kWorkerTraceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-worker fleet in -short mode")
	}
	run := func() []byte {
		cfg := testCfg()
		cfg.Workers = 1000
		cfg.Rounds = 1
		cfg.Seed = 12
		cfg.Hierarchical = true
		cfg.IngressSerial = true
		cfg.SyntheticLocal = true
		cfg.Container = ""
		cfg.RoundGap = 30 * time.Second
		deps := testDeps(t, "heartbeat-gap", 12)
		r := newTestRun(t, cfg, deps, 1300) // 1/5 held out for validation

		if _, err := r.Execute(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := deps.Obs.Tracer.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := run()
	b := run()
	if len(a) == 0 {
		t.Fatal("trace export is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed 1k-worker runs exported different trace bytes")
	}
}
