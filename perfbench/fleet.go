package main

import (
	_ "embed"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/edge"
	"repro/internal/fed"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The fleet workload is one star FedAvg round at fleet scale: synthetic
// local updates (nn SGD is bypassed), hierarchical aggregation,
// serialized ingress and a checkpoint every round, under a scripted
// cascading outage. A run has fed-train's default round count and gap.
// Each worker's transfers advance the run's virtual clock in turn, so at
// this scale a round spans one to two minutes of it: every phase starts
// within the first two rounds, and the last three run after the horizon.
const (
	fleetWorkers = 2000
	fleetRounds  = 5
	fleetGap     = 15 * time.Second
	fleetPool    = 40 // distinct samples the single-sample shards alias
)

//go:embed scenarios/cascading-outage.scn
var cascadingOutage string

type fleetBench struct {
	seed   int64
	scn    *scenario.Scenario
	pcfg   pilot.Config
	shards [][]pilot.Sample
	val    []pilot.Sample
}

func newFleetBench(seed int64, _ string) (bench, error) {
	scn, err := scenario.ParseString(cascadingOutage)
	if err != nil {
		return nil, err
	}
	// A tiny pilot: the fleet holds two model copies per worker, and this
	// workload measures coordination, not arithmetic. At 16x12 the second
	// 3x3 convolution gets a full input; at the fleet-scale bench's 12x8 it
	// does not, and the server's validation pass fails.
	pcfg := pilot.DefaultConfig(pilot.Linear, 16, 12, 1)
	pcfg.ConvFilters1, pcfg.ConvFilters2, pcfg.DenseUnits = 2, 4, 8
	pcfg.Seed = seed
	pool, err := stripeSamples(pcfg, fleetPool, seed)
	if err != nil {
		return nil, err
	}
	shards := make([][]pilot.Sample, fleetWorkers)
	for i := range shards {
		at := i % len(pool)
		shards[i] = pool[at : at+1]
	}
	return &fleetBench{seed: seed, scn: scn, pcfg: pcfg, shards: shards, val: pool}, nil
}

// stripeSamples draws n frames holding one vertical stripe whose column
// encodes the steering label, on a seeded phase.
func stripeSamples(cfg pilot.Config, n int, seed int64) ([]pilot.Sample, error) {
	phase := rand.New(rand.NewSource(seed)).Float64() * 2 * math.Pi
	recs := make([]sim.Record, n)
	for i := range recs {
		f, err := sim.NewFrame(cfg.Width, cfg.Height, 1)
		if err != nil {
			return nil, err
		}
		angle := math.Sin(phase + float64(i)/5)
		col := int((angle + 1) / 2 * float64(cfg.Width-1))
		for y := 0; y < cfg.Height; y++ {
			f.Set(col, y, 255)
		}
		recs[i] = sim.Record{Index: i, Frame: f, Steering: angle, Throttle: 0.5,
			Timestamp: epoch.Add(time.Duration(i) * 50 * time.Millisecond)}
	}
	return pilot.SamplesFromRecords(cfg, recs)
}

// execute runs one fleetRounds-round fleet on fresh substrates and
// returns its rounds and the scenario transitions those rounds fired.
func (b *fleetBench) execute(e env, res *result, op int) ([]fed.RoundResult, int, error) {
	rt, err := scenario.NewRuntime(b.scn, b.seed, epoch)
	if err != nil {
		return nil, 0, err
	}
	o := obs.Observer{Metrics: e.reg}
	rt.Start(o)
	cfg := fed.DefaultConfig()
	cfg.Workers = fleetWorkers
	cfg.Rounds = fleetRounds
	cfg.BatchSize = 8
	cfg.Seed = b.seed
	cfg.RoundGap = fleetGap
	cfg.Hierarchical = true
	cfg.IngressSerial = true
	cfg.SyntheticLocal = true
	hub := edge.NewHub()
	if e.reg != nil {
		hub.Instrument(e.reg)
	}
	var marks []time.Time
	deps := fed.Deps{
		Net: netem.NewNet(b.seed), Hub: hub, Store: objstore.New(), Plan: rt.Plan(), Obs: o, Start: epoch,
		AfterRound: func(int, obs.SpanContext) error {
			marks = append(marks, time.Now())
			return nil
		},
	}
	rt.Attach(deps.Net)
	global, err := pilot.New(b.pcfg)
	if err != nil {
		return nil, 0, err
	}
	sp := e.rec.begin("fed.newrun", -1, op)
	t0 := time.Now()
	r, err := fed.NewRun(cfg, deps, global, b.shards, b.val)
	res.setup = append(res.setup, time.Since(t0))
	e.rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	mt := startMeter(e.rec != nil)
	start := time.Now()
	out, err := r.Execute()
	st := mt.stop(res)
	if err != nil {
		return nil, 0, err
	}
	for i, end := range marks {
		st.ops = append(st.ops, end.Sub(start))
		e.rec.add("fed.round", start, end, -1, op*fleetRounds+i)
		start = end
	}
	st.attempted = len(out.Rounds)
	res.ops = append(res.ops, st.ops...)
	res.attempted += st.attempted
	res.stretches = append(res.stretches, st)
	// Count the transitions the rounds' own timeline fired, then play the
	// rest of the horizon only to close the scenario's spans.
	fired := rt.Transitions()
	rt.Clock().Advance(b.scn.Horizon())
	rt.Finish()
	return out.Rounds, fired, nil
}

func (b *fleetBench) timed(e env) (*result, error) {
	res := &result{}
	// One warm-up run: the first pays for heap growth the later ones reuse.
	if _, _, err := b.execute(env{}, &result{}, 0); err != nil {
		return nil, err
	}
	runs, transitions, err := sameSeedRuns(e, res, len(b.scn.Phases), sameRound,
		func(op int) ([]fed.RoundResult, int, error) { return b.execute(e, res, op) })
	if err != nil {
		return nil, err
	}
	rounds := slices.Concat(runs...)
	if e.rec == nil {
		return res, nil
	}
	n := float64(len(rounds))
	var part, drop, cut, wire float64
	var wall time.Duration
	for _, rr := range rounds {
		part += float64(len(rr.Participants))
		drop += float64(len(rr.Dropped))
		cut += float64(len(rr.Cut))
		wire += float64(rr.BytesOnWire())
		wall += rr.Wall
	}
	dur, _, count := e.rec.totals()
	c := e.reg.Snapshot().Counters
	res.layer = map[string]float64{
		"val_loss":             rounds[len(rounds)-1].ValLoss,
		"wire_mb":              wire / 1e6 / n,
		"modelled_round_s":     wall.Seconds() / n,
		"fed.newrun_ms":        msf(dur["fed.newrun"]) / float64(count["fed.newrun"]),
		"fed.round_ms":         msf(dur["fed.round"]) / float64(count["fed.round"]),
		"fed.participants":     part / n,
		"fed.dropped":          drop / n,
		"fed.cut":              cut / n,
		"fed.aggregated_share": part / n / fleetWorkers,
		"fed.bytes_broadcast":  c[`fed_bytes_on_wire_total{dir="broadcast"}`] / n,
		"fed.bytes_upload":     c[`fed_bytes_on_wire_total{dir="upload"}`] / n,
		"fed.bytes_region":     c[`fed_bytes_on_wire_total{dir="region"}`] / n,
		"fed.checkpoints":      c["fed_checkpoints_total"] / n,
		"edge.evictions":       c["edge_sweep_evictions_total"] / n,
		"faults.retries":       c["retry_attempts_total"] / n,
		"faults.injected":      c["faults_injected_total"] / n,
		"scenario.transitions": float64(transitions),
	}
	return res, nil
}

// sameRound compares what a same-seed round must reproduce.
func sameRound(a, b fed.RoundResult) bool {
	return slices.Equal(a.Participants, b.Participants) && a.BytesOnWire() == b.BytesOnWire() &&
		a.Wall == b.Wall && sameFloat(a.ValLoss, b.ValLoss)
}

func (b *fleetBench) probe(env, *result) error { return nil }
