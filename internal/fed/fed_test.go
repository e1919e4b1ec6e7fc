package fed

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/edge"
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

// fedSamples produces frames whose single bright column encodes the
// steering label, so local training has real signal.
func fedSamples(t testing.TB, n int) []pilot.Sample {
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

// testDeps assembles a full continuum: network, hub, store, observer, and
// optionally a fault plan anchored at testStart.
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

func newTestRun(t testing.TB, cfg Config, deps Deps, nSamples int) *Run {
	t.Helper()
	samples := fedSamples(t, nSamples)
	nVal := len(samples) / 5
	val := samples[len(samples)-nVal:]
	shards, err := ShardSamples(samples[:len(samples)-nVal], cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	global, err := pilot.New(testPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(cfg, deps, global, shards, val)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Workers = 3
	cfg.Rounds = 2
	cfg.BatchSize = 8
	return cfg
}

func TestFedSyncRound(t *testing.T) {
	cfg := testCfg()
	deps := testDeps(t, "", 1)
	r := newTestRun(t, cfg, deps, 45)

	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("got %d rounds, want %d", len(res.Rounds), cfg.Rounds)
	}
	for _, rr := range res.Rounds {
		if len(rr.Participants) != cfg.Workers {
			t.Fatalf("round %d aggregated %v, want all %d workers", rr.Round, rr.Participants, cfg.Workers)
		}
		if len(rr.Dropped) != 0 || len(rr.Cut) != 0 {
			t.Fatalf("fault-free sync round dropped %v cut %v", rr.Dropped, rr.Cut)
		}
		if rr.Wall <= 0 {
			t.Fatalf("round %d wall %v", rr.Round, rr.Wall)
		}
		if rr.BytesOnWire() <= 0 {
			t.Fatalf("round %d billed no bytes", rr.Round)
		}
		if math.IsNaN(rr.ValLoss) || rr.ValLoss <= 0 {
			t.Fatalf("round %d val loss %v", rr.Round, rr.ValLoss)
		}
	}

	// The checkpoint must be a loadable pilot in the configured location.
	data, _, err := deps.Store.Get(cfg.Container, cfg.Object)
	if err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}
	if _, err := pilot.Load(strings.NewReader(string(data))); err != nil {
		t.Fatalf("checkpoint not a pilot: %v", err)
	}

	snap := deps.Obs.Metrics.Snapshot()
	if got := snap.Counters["fed_rounds_total"]; got != float64(cfg.Rounds) {
		t.Fatalf("fed_rounds_total = %v, want %d", got, cfg.Rounds)
	}
	if got := snap.Counters["fed_deltas_applied_total"]; got != float64(cfg.Rounds*cfg.Workers) {
		t.Fatalf("fed_deltas_applied_total = %v, want %d", got, cfg.Rounds*cfg.Workers)
	}
	if got := snap.Counters["fed_checkpoints_total"]; got != float64(cfg.Rounds) {
		t.Fatalf("fed_checkpoints_total = %v, want %d", got, cfg.Rounds)
	}
}

// TestFedStoreFaultsReachCheckpoints is the store-hook regression: under
// flaky-objstore the fleet's checkpoint writes must hit the plan's
// injected store faults and retry through them, so every round still
// checkpoints and the retries show on the fed_checkpoint op.
func TestFedStoreFaultsReachCheckpoints(t *testing.T) {
	cfg := testCfg()
	cfg.Rounds = 3
	deps := testDeps(t, "flaky-objstore", 1)
	r := newTestRun(t, cfg, deps, 45)
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	c := deps.Obs.Metrics.Snapshot().Counters
	injected := c[`faults_injected_total{kind="objstore"}`]
	if injected <= 0 {
		t.Fatalf("no objstore faults injected under flaky-objstore: %v", deps.Plan.Summary())
	}
	if got := c["fed_checkpoints_total"]; got != float64(cfg.Rounds) {
		t.Fatalf("fed_checkpoints_total = %v, want %d", got, cfg.Rounds)
	}
	if got, want := c[`retry_attempts_total{op="fed_checkpoint"}`], float64(cfg.Rounds)+injected; got != want {
		t.Fatalf("fed_checkpoint attempts = %v, want %v (one per round plus one per injected fault)", got, want)
	}
}

// fedWeights flattens the global model's weights for comparison.
func fedWeights(r *Run) []float64 {
	var out []float64
	for _, p := range r.Global.Model().Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// fedCounters extracts the fed_* slice of a metrics snapshot.
func fedCounters(s obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s.Counters {
		if strings.HasPrefix(k, "fed_") {
			out[k] = v
		}
	}
	return out
}

// TestFedDeterminism runs the same seeded configuration twice — quorum
// staleness, top-k compression, lossy WAN faults, the works — and requires
// bit-identical global weights and identical fed_* counters.
func TestFedDeterminism(t *testing.T) {
	run := func() ([]float64, map[string]float64, Result) {
		cfg := testCfg()
		cfg.Quorum = 2
		cfg.Compress = "topk"
		cfg.Rounds = 3
		cfg.Seed = 42
		deps := testDeps(t, "lossy-wan", 42)
		r := newTestRun(t, cfg, deps, 45)
		res, err := r.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return fedWeights(r), fedCounters(deps.Obs.Metrics.Snapshot()), res
	}

	w1, c1, res1 := run()
	w2, c2, res2 := run()

	if len(w1) != len(w2) {
		t.Fatalf("weight counts differ: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		if math.Float64bits(w1[i]) != math.Float64bits(w2[i]) {
			t.Fatalf("weight %d differs: %x vs %x (%g vs %g)",
				i, math.Float64bits(w1[i]), math.Float64bits(w2[i]), w1[i], w2[i])
		}
	}
	if len(c1) == 0 {
		t.Fatal("no fed_* counters recorded")
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counter %s: %v vs %v", k, v, c2[k])
		}
	}
	if res1.TotalBytes != res2.TotalBytes {
		t.Fatalf("bytes on wire differ: %d vs %d", res1.TotalBytes, res2.TotalBytes)
	}
	if res1.FinalValLoss != res2.FinalValLoss {
		t.Fatalf("final val loss differs: %v vs %v", res1.FinalValLoss, res2.FinalValLoss)
	}
}

// TestFedQuorumCutsStragglers checks K-of-N both cuts the slow tail and
// finishes rounds faster than the synchronous barrier on the same fleet.
func TestFedQuorumCutsStragglers(t *testing.T) {
	base := testCfg()
	base.Workers = 4
	base.Rounds = 2

	sync := newTestRun(t, base, testDeps(t, "", 7), 52)
	syncRes, err := sync.Execute()
	if err != nil {
		t.Fatal(err)
	}

	qcfg := base
	qcfg.Quorum = 2
	quorum := newTestRun(t, qcfg, testDeps(t, "", 7), 52)
	quorumRes, err := quorum.Execute()
	if err != nil {
		t.Fatal(err)
	}

	for _, rr := range quorumRes.Rounds {
		if len(rr.Participants) != qcfg.Quorum {
			t.Fatalf("round %d aggregated %d workers, want quorum %d", rr.Round, len(rr.Participants), qcfg.Quorum)
		}
		if len(rr.Cut) != base.Workers-qcfg.Quorum {
			t.Fatalf("round %d cut %v, want %d stragglers", rr.Round, rr.Cut, base.Workers-qcfg.Quorum)
		}
	}
	if quorumRes.MeanRoundWall >= syncRes.MeanRoundWall {
		t.Fatalf("quorum mean round wall %v not faster than sync %v",
			quorumRes.MeanRoundWall, syncRes.MeanRoundWall)
	}
}

// TestFedHeartbeatSilenceDropsWorker is the timeout-path regression: a
// scripted silence window opens mid-round, the sweep evicts the silent
// device, and the round completes without it instead of stalling the
// barrier waiting for an upload that will never count.
func TestFedHeartbeatSilenceDropsWorker(t *testing.T) {
	deps := testDeps(t, "heartbeat-gap", 3)
	scripted := deps.Plan.ScriptDevices()
	if len(scripted) == 0 {
		t.Fatal("heartbeat-gap profile scripted no devices")
	}

	// Find a silence window long enough (>=160s) that the 90s heartbeat
	// window plus sweep cadence is guaranteed to evict before it closes.
	probe := testStart
	var wStart, wEnd time.Time
	for probe.Before(testStart.Add(2 * time.Hour)) {
		if deps.Plan.DeviceSilent(scripted[0], probe) {
			s := probe
			e := probe
			for deps.Plan.DeviceSilent(scripted[0], e) {
				e = e.Add(5 * time.Second)
			}
			if e.Sub(s) >= 160*time.Second {
				wStart, wEnd = s, e
				break
			}
			probe = e
		}
		probe = probe.Add(5 * time.Second)
	}
	if wStart.IsZero() {
		t.Fatal("no long-enough silence window scripted in the first two hours")
	}

	cfg := testCfg()
	cfg.Workers = 3
	cfg.Rounds = 1
	// Size local training so the mid-round clock advance spans the whole
	// eviction sequence: silence opens, beats are skipped, sweep fires.
	cfg.PerSampleCost = 25 * time.Second

	r := newTestRun(t, cfg, deps, 45)
	if r.Workers[0].Name != scripted[0] {
		t.Fatalf("worker 0 is %q, want scripted device %q", r.Workers[0].Name, scripted[0])
	}

	// Walk the clock to just before the window opens (in steps, so the
	// heartbeat playback keeps every device checked in along the way).
	for r.Clock.Now().Add(10 * time.Second).Before(wStart) {
		r.Clock.Advance(10 * time.Second)
	}

	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	_ = wEnd
	rr := res.Rounds[0]
	found := false
	for _, idx := range rr.Dropped {
		if idx == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("silent worker 0 not dropped (dropped %v, participants %v)", rr.Dropped, rr.Participants)
	}
	for _, idx := range rr.Participants {
		if idx == 0 {
			t.Fatalf("silent worker 0 still aggregated: %v", rr.Participants)
		}
	}
	if len(rr.Participants) == 0 {
		t.Fatal("round aggregated nobody; healthy workers should have survived")
	}

	snap := deps.Obs.Metrics.Snapshot()
	if snap.Counters[`fed_workers_dropped_total{reason="offline"}`] < 1 {
		t.Fatalf("no offline drop counted: %v", fedCounters(snap))
	}
	if snap.Counters[`faults_injected_total{kind="heartbeat_gap"}`] < 1 {
		t.Fatal("silence window never suppressed a heartbeat")
	}
}

// TestFedCompressionReducesBytes compares raw and top-k runs: compressed
// traffic must be at least 3x smaller while training still converges to a
// usable model.
func TestFedCompressionReducesBytes(t *testing.T) {
	run := func(profile string) Result {
		cfg := testCfg()
		cfg.Compress = profile
		cfg.Rounds = 3
		r := newTestRun(t, cfg, testDeps(t, "", 5), 45)
		res, err := r.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	raw := run("none")
	topk := run("topk")

	if raw.TotalBytes < 3*topk.TotalBytes {
		t.Fatalf("topk bytes %d not >=3x smaller than raw %d", topk.TotalBytes, raw.TotalBytes)
	}
	if math.IsNaN(topk.FinalValLoss) || topk.FinalValLoss <= 0 {
		t.Fatalf("compressed run val loss %v", topk.FinalValLoss)
	}
	// Quantization noise must not blow up training relative to raw.
	if topk.FinalValLoss > 3*raw.FinalValLoss {
		t.Fatalf("topk val loss %v diverged vs raw %v", topk.FinalValLoss, raw.FinalValLoss)
	}
}

func TestShardSamples(t *testing.T) {
	samples := fedSamples(t, 10)
	shards, err := ShardSamples(samples, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards", len(shards))
	}
	total := 0
	sizes := []int{4, 3, 3}
	for i, s := range shards {
		if len(s) != sizes[i] {
			t.Fatalf("shard %d has %d samples, want %d", i, len(s), sizes[i])
		}
		total += len(s)
	}
	if total != len(samples) {
		t.Fatalf("shards cover %d of %d samples", total, len(samples))
	}
	if &shards[0][0] != &samples[0] || &shards[2][2] != &samples[9] {
		t.Fatal("shards are not contiguous views of the input")
	}
	if _, err := ShardSamples(samples, 11); err == nil {
		t.Fatal("accepted more shards than samples")
	}
	if _, err := ShardSamples(samples, 0); err == nil {
		t.Fatal("accepted zero shards")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.Quorum = -1 },
		func(c *Config) { c.Quorum = c.Workers + 1 },
		func(c *Config) { c.LocalEpochs = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.RoundGap = -time.Second },
		func(c *Config) { c.PerSampleCost = -time.Second },
		func(c *Config) { c.TopKFrac = 1.5 },
		func(c *Config) { c.Compress = "zstd" },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}
