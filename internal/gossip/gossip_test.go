package gossip

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const (
	testW = 24
	testH = 16
)

var testStart = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

func testPilotCfg() pilot.Config {
	c := pilot.DefaultConfig(pilot.Linear, testW, testH, 1)
	c.ConvFilters1 = 4
	c.ConvFilters2 = 8
	c.DenseUnits = 16
	return c
}

// gossipSamples produces frames whose single bright column encodes the
// steering label, matching fed's test corpus so star/gossip comparisons
// train on identical data.
func gossipSamples(t testing.TB, n int) []pilot.Sample {
	t.Helper()
	recs := make([]sim.Record, n)
	for i := 0; i < n; i++ {
		f, err := sim.NewFrame(testW, testH, 1)
		if err != nil {
			t.Fatal(err)
		}
		angle := math.Sin(float64(i) / 5)
		col := int((angle + 1) / 2 * float64(testW-1))
		for y := 0; y < testH; y++ {
			f.Set(col, y, 255)
		}
		recs[i] = sim.Record{
			Index: i, Frame: f,
			Steering: angle, Throttle: 0.5,
			Timestamp: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 50 * time.Millisecond),
		}
	}
	samples, err := pilot.SamplesFromRecords(testPilotCfg(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func testDeps(t testing.TB, profile string, seed int64) Deps {
	t.Helper()
	d := Deps{
		Net:   netem.NewNet(seed),
		Hub:   edge.NewHub(),
		Store: objstore.New(),
		Obs:   obs.NewObserver(),
		Start: testStart,
	}
	if profile != "" {
		s, err := scenario.Profile(profile, seed)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := scenario.NewRuntime(s, seed, testStart)
		if err != nil {
			t.Fatal(err)
		}
		rt.Attach(d.Net)
		d.Plan = rt.Plan()
		d.Plan.Instrument(d.Obs.Metrics)
	}
	return d
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Workers = 3
	cfg.Rounds = 3
	cfg.BatchSize = 8
	return cfg
}

func splitShards(t testing.TB, samples []pilot.Sample, workers int) ([][]pilot.Sample, []pilot.Sample) {
	t.Helper()
	nVal := len(samples) / 5
	val := samples[len(samples)-nVal:]
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], workers)
	if err != nil {
		t.Fatal(err)
	}
	return shards, val
}

func newTestRun(t testing.TB, cfg Config, deps Deps, nSamples int) *Run {
	t.Helper()
	shards, val := splitShards(t, gossipSamples(t, nSamples), cfg.Workers)
	genesis, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(cfg, deps, genesis, shards, val)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGossipConvergesLikeStar is the acceptance gate: on a clean fabric
// with full fanout, the fleet-union model must land within 2% of the
// star parameter server's val loss on the same data, seeds, and rounds.
func TestGossipConvergesLikeStar(t *testing.T) {
	samples := gossipSamples(t, 45)

	fcfg := fed.DefaultConfig()
	fcfg.Workers = 3
	fcfg.Rounds = 3
	fcfg.BatchSize = 8
	fshards, fval := splitShards(t, samples, fcfg.Workers)
	fglobal, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	fdeps := fed.Deps{Net: netem.NewNet(1), Hub: edge.NewHub(), Store: objstore.New(), Obs: obs.NewObserver(), Start: testStart}
	frun, err := fed.NewRun(fcfg, fdeps, fglobal, fshards, fval)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := frun.Execute()
	if err != nil {
		t.Fatal(err)
	}

	cfg := testCfg()
	r := newTestRun(t, cfg, testDeps(t, "", 1), 45)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("%d rounds, want %d", len(res.Rounds), cfg.Rounds)
	}
	if fres.FinalValLoss <= 0 || res.FinalFleetValLoss <= 0 {
		t.Fatalf("degenerate losses: star %v gossip %v", fres.FinalValLoss, res.FinalFleetValLoss)
	}
	rel := math.Abs(res.FinalFleetValLoss-fres.FinalValLoss) / fres.FinalValLoss
	if rel > 0.02 {
		t.Fatalf("gossip %.6f vs star %.6f: %.2f%% apart, want <= 2%%",
			res.FinalFleetValLoss, fres.FinalValLoss, 100*rel)
	}
	// Full fanout on a clean fabric disseminates everything every round.
	last := res.Rounds[len(res.Rounds)-1]
	if last.ConvergenceLag != 0 {
		t.Fatalf("clean-run convergence lag %d, want 0", last.ConvergenceLag)
	}
	if res.HeadSyncs != cfg.Rounds {
		t.Fatalf("%d head syncs, want %d", res.HeadSyncs, cfg.Rounds)
	}
	if last.HeadValLoss != last.FleetValLoss {
		t.Fatalf("synced head loss %v != fleet loss %v", last.HeadValLoss, last.FleetValLoss)
	}
}

// gossipTrace executes a faulted run and returns the exported bytes.
func gossipTrace(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := testCfg()
	deps := testDeps(t, "lossy-wan", seed)
	r := newTestRun(t, cfg, deps, 45)
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := deps.Obs.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGossipTraceByteDeterministic(t *testing.T) {
	a, b := gossipTrace(t, 11), gossipTrace(t, 11)
	if len(a) == 0 {
		t.Fatal("empty trace export")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed gossip runs exported different trace bytes")
	}
	if c := gossipTrace(t, 12); bytes.Equal(a, c) {
		t.Fatal("different seeds exported identical traces (suspicious)")
	}
	recs, err := obs.ReadTraceJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"gossip-train": false, "gossip-round": false, "gossip_local_train": false,
		"gossip_exchange": false, "gossip_parcels": false, "gossip_validate": false,
		"netem_transfer": false,
	}
	for _, rec := range recs {
		if _, ok := want[rec.Name]; ok {
			want[rec.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q span in trace", name)
		}
	}
}

// partitionRuntime loads the checked-in cloud-partition scenario.
func partitionRuntime(t *testing.T, seed int64) *scenario.Runtime {
	t.Helper()
	s, err := scenario.Load("../../scenarios/cloud-partition.scn")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.NewRuntime(s, seed, testStart)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestGossipSurvivesCloudPartition runs the scenario the star fleet
// cannot: the WAN partitions for good mid-run. Gossip must keep moving
// parcels and improving the fleet model with the head frozen; star must
// stall outright (zero participants, val loss bit-frozen).
func TestGossipSurvivesCloudPartition(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 6
	cfg.RoundGap = 15 * time.Second
	deps := testDeps(t, "", 21)
	rt := partitionRuntime(t, 21)
	rt.Start(deps.Obs)
	deps.Plan = rt.Plan()
	rt.Attach(deps.Net)
	r := newTestRun(t, cfg, deps, 45)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.HeadSyncs == 0 {
		t.Fatal("no head sync succeeded before the partition")
	}
	if res.HeadSyncs >= cfg.Rounds {
		t.Fatalf("%d head syncs in %d rounds: the partition never bit", res.HeadSyncs, cfg.Rounds)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.HeadSynced {
		t.Fatal("final round synced the head through a partitioned WAN")
	}
	// The mesh keeps working: parcels still move, every reachable worker
	// stays caught up, and the fleet model keeps improving past the cut.
	if last.Exchanges == 0 || last.ParcelsMoved == 0 {
		t.Fatalf("final partitioned round moved nothing: %+v", last)
	}
	if last.ConvergenceLag != 0 {
		t.Fatalf("final convergence lag %d, want 0 (peer links are healthy)", last.ConvergenceLag)
	}
	var lastSynced int
	for i, rr := range res.Rounds {
		if rr.HeadSynced {
			lastSynced = i
		}
	}
	if res.FinalFleetValLoss >= res.Rounds[lastSynced].FleetValLoss {
		t.Fatalf("fleet loss did not improve after the partition: %.6f at cut, %.6f final",
			res.Rounds[lastSynced].FleetValLoss, res.FinalFleetValLoss)
	}
	// The head is frozen at its last synced state.
	if last.HeadValLoss != res.Rounds[lastSynced].HeadValLoss {
		t.Fatalf("head loss moved during the partition: %.6f -> %.6f",
			res.Rounds[lastSynced].HeadValLoss, last.HeadValLoss)
	}

	// Star under the same scenario: every upload funnels through the
	// partitioned WAN, so late rounds aggregate nobody and the global
	// model freezes bit-for-bit.
	fcfg := fed.DefaultConfig()
	fcfg.Workers = 3
	fcfg.Rounds = 6
	fcfg.BatchSize = 8
	fcfg.RoundGap = 15 * time.Second
	fdeps := fed.Deps{Net: netem.NewNet(21), Hub: edge.NewHub(), Store: objstore.New(), Obs: obs.NewObserver(), Start: testStart}
	frt := partitionRuntime(t, 21)
	frt.Start(fdeps.Obs)
	fdeps.Plan = frt.Plan()
	frt.Attach(fdeps.Net)
	fshards, fval := splitShards(t, gossipSamples(t, 45), fcfg.Workers)
	fglobal, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	frun, err := fed.NewRun(fcfg, fdeps, fglobal, fshards, fval)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := frun.Execute()
	if err != nil {
		t.Fatal(err)
	}
	flast := fres.Rounds[len(fres.Rounds)-1]
	fprev := fres.Rounds[len(fres.Rounds)-2]
	if len(flast.Participants) != 0 {
		t.Fatalf("star aggregated %d workers through a partition", len(flast.Participants))
	}
	if flast.ValLoss != fprev.ValLoss {
		t.Fatalf("star val loss moved while stalled: %.6f -> %.6f", fprev.ValLoss, flast.ValLoss)
	}
	if res.FinalFleetValLoss >= fres.FinalValLoss {
		t.Fatalf("gossip (%.6f) did not beat the stalled star (%.6f) under partition",
			res.FinalFleetValLoss, fres.FinalValLoss)
	}
}

// TestGossipHeadStartsAtGenesis: until its first sync the cloud head
// holds genesis, whatever genesis's weights are, not a fresh
// initialization of genesis's config. With the WAN partitioned from 0 s
// the head never syncs, so its round-0 loss is genesis's own.
func TestGossipHeadStartsAtGenesis(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 1
	deps := testDeps(t, "", 23)
	s, err := scenario.ParseString("scenario v1\nname head-cut\nlink campus-wan\nphase 0s..2h partition link=campus-wan\n")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.NewRuntime(s, 23, testStart)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(deps.Obs)
	deps.Plan = rt.Plan()
	rt.Attach(deps.Net)
	shards, val := splitShards(t, gossipSamples(t, 45), cfg.Workers)
	genesis, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, prm := range genesis.Model().Params() {
		for j := range prm.W.Data {
			prm.W.Data[j] /= 2
		}
	}
	want, err := genesis.Validate(val, cfg.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(cfg, deps, genesis, shards, val)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Rounds[0]
	if rr.HeadSynced {
		t.Fatal("the head synced through a WAN partitioned from 0 s")
	}
	if rr.HeadValLoss != want {
		t.Fatalf("unsynced head scores %.6f, genesis %.6f", rr.HeadValLoss, want)
	}
}

// TestGossipChurnRejoin silences one worker mid-run and checks the
// overlay's rejoin story: the rounds after a sweep evicts it record it
// offline, and once the window passes and it re-onboards the next
// round's anti-entropy pulls it back level with the fleet head version.
func TestGossipChurnRejoin(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 7
	cfg.RoundGap = 60 * time.Second
	deps := testDeps(t, "", 5)
	plan := faults.NewPlan(5, testStart)
	// Rounds start roughly every 60s. The silence outlasts the heartbeat
	// window, so a sweep evicts the worker before round 3 and it
	// re-onboards at the first beat after 300s, before round 5.
	plan.AddSilenceWindow("rejoiner", faults.Window{
		Start: testStart.Add(10 * time.Second),
		End:   testStart.Add(300 * time.Second),
	})
	deps.Plan = plan
	r := newTestRun(t, cfg, deps, 45)
	// The scripted device name lands on worker 0.
	if r.workers[0].Name != "rejoiner" {
		t.Fatalf("scripted name not adopted: %q", r.workers[0].Name)
	}
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	var offlineRounds int
	for _, rr := range res.Rounds {
		if len(rr.Offline) > 0 {
			offlineRounds++
			for _, idx := range rr.Offline {
				if idx != 0 {
					t.Fatalf("round %d: worker %d offline, only 0 was scripted", rr.Round, idx)
				}
			}
		}
	}
	if offlineRounds == 0 {
		t.Fatal("the silence window never took the worker offline")
	}
	if offlineRounds >= cfg.Rounds {
		t.Fatal("worker never rejoined")
	}
	last := res.Rounds[len(res.Rounds)-1]
	if len(last.Offline) != 0 {
		t.Fatalf("final round still offline: %+v", last.Offline)
	}
	if last.ConvergenceLag != 0 {
		t.Fatalf("rejoiner still lagging %d rounds at the end", last.ConvergenceLag)
	}
	// The rejoiner holds the complete fleet history again.
	for round, keys := range r.produced {
		if !r.workers[0].store.HasAll(keys) {
			t.Fatalf("rejoiner missing parcels from round %d after rejoin", round)
		}
	}
}

// TestGossipEvictionClearsResidual is the one residual rule in gossip: a
// sweep that evicts a worker's device clears its top-k error-feedback
// residual, as the star's drop does, so the first parcel it exports after
// rejoining defers nothing from before its connection was lost. Each
// round's hook re-encodes the rejoiner's delta with an empty residual;
// the parcel it exported must match that encoding bit for bit.
func TestGossipEvictionClearsResidual(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 7
	cfg.RoundGap = 60 * time.Second
	cfg.Compress = "topk"
	deps := testDeps(t, "", 5)
	plan := faults.NewPlan(5, testStart)
	plan.AddSilenceWindow("rejoiner", faults.Window{
		Start: testStart.Add(10 * time.Second),
		End:   testStart.Add(300 * time.Second),
	})
	deps.Plan = plan
	var r *Run
	fresh := map[int][][]float64{} // round -> worker 0's delta under an empty residual
	deps.AfterRound = func(round int, _ obs.SpanContext) error {
		w := r.workers[0]
		if !w.store.Has(Key{Origin: 0, Round: round}) {
			return nil
		}
		local := fed.Snapshot(w.Local)
		delta := make([][]float64, len(local))
		empty := make([][]float64, len(local))
		for i, vals := range local {
			delta[i] = make([]float64, len(vals))
			for j, v := range vals {
				delta[i][j] = (v - w.Base[i][j]) * w.weight
			}
			empty[i] = make([]float64, len(vals))
		}
		fresh[round] = r.Codec.EncodeDelta(delta, empty).Values
		return nil
	}
	r = newTestRun(t, cfg, deps, 45)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	matches := func(round int) bool {
		got := r.workers[0].store.Get(Key{Origin: 0, Round: round}).Values
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(fresh[round][i][j]) {
					return false
				}
			}
		}
		return true
	}
	rejoin, carried, out := -1, -1, false
	for _, rr := range res.Rounds {
		switch {
		case slices.Contains(rr.Offline, 0):
			out = true
		case !slices.Contains(rr.Trained, 0):
		case out && rejoin < 0:
			rejoin = rr.Round
		case rr.Round > 0 && slices.Contains(res.Rounds[rr.Round-1].Trained, 0) && carried < 0:
			carried = rr.Round
		}
	}
	if rejoin < 0 || carried < 0 {
		t.Fatalf("worker 0 never exported twice in a row (round %d) or never rejoined (round %d)", carried, rejoin)
	}
	// The probe sees a residual: a round after an export carries the
	// previous round's deferred tail.
	if matches(carried) {
		t.Fatalf("round %d: the parcel matches an empty residual after a top-k export; the check cannot see residuals", carried)
	}
	if !matches(rejoin) {
		t.Fatalf("round %d: the rejoined worker exported with the residual it had before its eviction", rejoin)
	}
}

// TestGossipPartnerEvictedMidExchange checks that gossip reads the
// fleet's liveness rule mid-round, as the star does: a worker that is
// connected when the round begins trains, a sweep evicts it while the
// exchange phase runs (a slow peer mesh stretches that phase across the
// sweep), and the partners that pick it afterwards bill a probe and count
// it unreachable.
func TestGossipPartnerEvictedMidExchange(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 1
	cfg.PeerLink = netem.Link{Name: "slow-peer", Latency: 5 * time.Second, Bandwidth: 1e9}
	deps := testDeps(t, "", 7)
	plan := faults.NewPlan(7, testStart)
	// The daemon's last beat is at 15s, so the sweep at 135s is the first
	// to find it a whole heartbeat window silent.
	plan.AddSilenceWindow("leaver", faults.Window{
		Start: testStart.Add(20 * time.Second),
		End:   testStart.Add(time.Hour),
	})
	deps.Plan = plan
	r := newTestRun(t, cfg, deps, 45)
	r.Clock.Advance(115 * time.Second)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Rounds[0]
	if !slices.Contains(rr.Trained, 0) || !slices.Contains(rr.Offline, 0) {
		t.Fatalf("worker 0 should train and then go offline: trained %v, offline %v", rr.Trained, rr.Offline)
	}
	if rr.Unreachable == 0 {
		t.Fatal("no partner was probed as unreachable")
	}
	var buf bytes.Buffer
	if err := deps.Obs.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]time.Time{}
	for _, rec := range recs {
		name := rec.Name
		if name == "gossip_probe" && rec.Attrs["peer"] != "leaver" {
			continue
		}
		if at, ok := first[name]; !ok || rec.Start.Before(at) {
			first[name] = rec.Start
		}
	}
	exch, sweep, probe := first["gossip_exchange"], first["edge_sweep"], first["gossip_probe"]
	if exch.IsZero() || sweep.IsZero() || probe.IsZero() || !exch.Before(sweep) || !sweep.Before(probe) {
		t.Fatalf("want an exchange, then the evicting sweep, then a probe of the evicted worker; got %v, %v, %v", exch, sweep, probe)
	}
}

// TestGossipFreeRiders checks that store-and-forward-only members ride
// the overlay without producing parcels or stalling convergence.
func TestGossipFreeRiders(t *testing.T) {
	cfg := testCfg()
	cfg.Workers = 4
	cfg.FreeRiders = 1
	deps := testDeps(t, "", 9)
	r := newTestRun(t, cfg, deps, 60)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Rounds {
		for _, idx := range rr.Trained {
			if idx == 0 {
				t.Fatalf("round %d: free rider trained", rr.Round)
			}
		}
		if len(rr.Trained) != cfg.Workers-1 {
			t.Fatalf("round %d: %d trainers, want %d", rr.Round, len(rr.Trained), cfg.Workers-1)
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.ConvergenceLag != 0 {
		t.Fatalf("free-rider fleet ended with lag %d", last.ConvergenceLag)
	}
	// The free rider carries the full parcel history all the same.
	for round, keys := range r.produced {
		if !r.workers[0].store.HasAll(keys) {
			t.Fatalf("free rider missing round-%d parcels", round)
		}
	}
}

// TestRebuildOrderIndependent is the determinism keystone: two replicas
// holding the same parcel set rebuild to bit-identical weights no
// matter what order the parcels arrived in.
func TestRebuildOrderIndependent(t *testing.T) {
	cfg := testCfg()
	r := newTestRun(t, cfg, testDeps(t, "", 3), 45)

	// Manufacture a parcel history with adversarial float values.
	rng := rand.New(rand.NewSource(17))
	var parcels []*Parcel
	for round := 0; round < 4; round++ {
		for origin := 0; origin < 3; origin++ {
			vals := make([][]float64, len(r.initVals))
			for i, init := range r.initVals {
				tv := make([]float64, len(init))
				for j := range tv {
					tv[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(30)-25)
				}
				vals[i] = tv
			}
			parcels = append(parcels, &Parcel{Origin: origin, Round: round, WireBytes: 8, Values: vals})
		}
	}
	for trial := 0; trial < 4; trial++ {
		a, b := NewStore(), NewStore()
		for _, i := range rng.Perm(len(parcels)) {
			a.Put(parcels[i])
		}
		for _, i := range rng.Perm(len(parcels)) {
			b.Put(parcels[i])
		}
		fromA, err := r.rebuild(a)
		if err != nil {
			t.Fatal(err)
		}
		fromB, err := r.rebuild(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fromA {
			for j := range fromA[i] {
				if math.Float64bits(fromA[i][j]) != math.Float64bits(fromB[i][j]) {
					t.Fatalf("trial %d: rebuild diverged at param %d[%d]: %x vs %x",
						trial, i, j, math.Float64bits(fromA[i][j]), math.Float64bits(fromB[i][j]))
				}
			}
		}
	}
}

// TestGossipCheckpointLandsInStore verifies the head's model reaches
// objstore once synced, with the round recorded in metadata.
func TestGossipCheckpointLandsInStore(t *testing.T) {
	cfg := testCfg()
	deps := testDeps(t, "", 2)
	r := newTestRun(t, cfg, deps, 45)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointContainer == "" {
		t.Fatal("no checkpoint location reported")
	}
	data, info, err := deps.Store.Get(res.CheckpointContainer, res.CheckpointObject)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty checkpoint")
	}
	if info.Metadata["gossip-round"] == "" {
		t.Fatal("checkpoint missing gossip-round metadata")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Workers = 1 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.Fanout = -1 },
		func(c *Config) { c.BucketSize = -2 },
		func(c *Config) { c.FreeRiders = -1 },
		func(c *Config) { c.FreeRiders = 4 },
		func(c *Config) { c.LocalEpochs = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.RoundGap = -time.Second },
		func(c *Config) { c.PerSampleCost = -time.Second },
		func(c *Config) { c.TopKFrac = 1.5 },
		func(c *Config) { c.Compress = "zstd" },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}
