package main

import (
	_ "embed"
	"slices"
	"time"

	"repro/internal/edge"
	"repro/internal/fed"
	"repro/internal/gossip"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/track"
)

// The gossip workload is one round of `fed-train -topology gossip` at the
// CLI defaults under a cloud partition. Rebuild-from-genesis cost grows
// with the round index, so the round count is part of the workload.
const (
	gossipRounds  = 5 // the CLI's -rounds default
	gossipWorkers = 4
	gossipTicks   = 800
	gossipGap     = 15 * time.Second // the CLI's -round-gap default
	gossipSetups  = 30
)

//go:embed scenarios/cloud-partition.scn
var cloudPartition string

type gossipBench struct {
	seed   int64
	scn    *scenario.Scenario
	pcfg   pilot.Config
	shards [][]pilot.Sample
	val    []pilot.Sample
}

func newGossipBench(seed int64, _ string) (bench, error) {
	scn, err := scenario.ParseString(cloudPartition)
	if err != nil {
		return nil, err
	}
	cam := sim.SmallCameraConfig()
	recs, err := humanDrive(cam, seed, gossipTicks)
	if err != nil {
		return nil, err
	}
	pcfg := pilot.DefaultConfig(pilot.Linear, cam.Width, cam.Height, cam.Channels)
	samples, err := pilot.SamplesFromRecords(pcfg, recs)
	if err != nil {
		return nil, err
	}
	nVal := len(samples) / 5
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], gossipWorkers)
	if err != nil {
		return nil, err
	}
	return &gossipBench{seed: seed, scn: scn, pcfg: pcfg, shards: shards, val: samples[len(samples)-nVal:]}, nil
}

// humanDrive records a noisy human-driver session on the default oval, as
// the CLI's fed-train and collect commands do.
func humanDrive(cam sim.CameraConfig, seed int64, ticks int) ([]sim.Record, error) {
	trk, err := track.ByName("default-oval")
	if err != nil {
		return nil, err
	}
	c, err := sim.NewCamera(cam, trk)
	if err != nil {
		return nil, err
	}
	car, err := sim.NewCar(sim.DefaultCarConfig())
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultSessionConfig()
	cfg.MaxTicks = ticks
	ses, err := sim.NewSession(cfg, car, c, sim.NewHumanDriver(sim.NewPurePursuit(trk, car.Cfg), seed, cfg.Hz))
	if err != nil {
		return nil, err
	}
	return ses.Run(epoch).Records, nil
}

// build assembles a run on fresh substrates under a fresh scenario
// runtime and times gossip.NewRun as one set-up sample. marks collects
// the wall-clock end of every round.
func (b *gossipBench) build(e env, res *result, op int) (*gossip.Run, *scenario.Runtime, *[]time.Time, error) {
	rt, err := scenario.NewRuntime(b.scn, b.seed, epoch)
	if err != nil {
		return nil, nil, nil, err
	}
	o := obs.Observer{Metrics: e.reg}
	rt.Start(o)
	cfg := gossip.DefaultConfig()
	cfg.Workers = gossipWorkers
	cfg.Rounds = gossipRounds
	cfg.Seed = b.seed
	cfg.RoundGap = gossipGap
	marks := &[]time.Time{}
	deps := gossip.Deps{
		Net: netem.NewNet(b.seed), Hub: edge.NewHub(), Store: objstore.New(), Plan: rt.Plan(), Obs: o, Start: epoch,
		AfterRound: func(int, obs.SpanContext) error {
			*marks = append(*marks, time.Now())
			return nil
		},
	}
	rt.Attach(deps.Net)
	genesis, err := pilot.New(b.pcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	sp := e.rec.begin("gossip.newrun", -1, op)
	t0 := time.Now()
	r, err := gossip.NewRun(cfg, deps, genesis, b.shards, b.val)
	res.setup = append(res.setup, time.Since(t0))
	e.rec.end(sp)
	return r, rt, marks, err
}

// execute runs one gossipRounds-round gossip fleet on fresh substrates
// and returns its rounds and the scenario transitions those rounds fired.
func (b *gossipBench) execute(e env, res *result, op int) ([]gossip.RoundResult, int, error) {
	r, rt, marks, err := b.build(e, res, op)
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
	for i, end := range *marks {
		st.ops = append(st.ops, end.Sub(start))
		e.rec.add("gossip.round", start, end, -1, op*gossipRounds+i)
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

// sameGossipRound compares what a same-seed round must reproduce.
func sameGossipRound(a, b gossip.RoundResult) bool {
	return slices.Equal(a.Trained, b.Trained) && a.BytesOnWire() == b.BytesOnWire() &&
		a.Wall == b.Wall && sameFloat(a.FleetValLoss, b.FleetValLoss)
}

func (b *gossipBench) timed(e env) (*result, error) {
	res := &result{}
	// gossip.NewRun takes tens of milliseconds, and a window holds only a
	// few runs: time extra constructions so the median has samples.
	for i := 0; i < gossipSetups; i++ {
		if _, _, _, err := b.build(env{}, res, -1); err != nil {
			return nil, err
		}
	}
	// One warm-up run: the first pays for heap growth the later ones reuse.
	if _, _, err := b.execute(env{}, &result{}, 0); err != nil {
		return nil, err
	}
	runs, transitions, err := sameSeedRuns(e, res, len(b.scn.Phases), sameGossipRound,
		func(op int) ([]gossip.RoundResult, int, error) { return b.execute(e, res, op) })
	if err != nil {
		return nil, err
	}
	if e.rec == nil {
		return res, nil
	}
	var n, exch, fails, unreach, parcels, digest, parcelB, lag, syncs float64
	var wall time.Duration
	for _, rr := range slices.Concat(runs...) {
		n++
		exch += float64(rr.Exchanges)
		fails += float64(rr.FailedExchanges)
		unreach += float64(rr.Unreachable)
		parcels += float64(rr.ParcelsMoved)
		digest += float64(rr.DigestBytes)
		parcelB += float64(rr.ParcelBytes)
		lag += float64(rr.ConvergenceLag)
		wall += rr.Wall
		if rr.HeadSynced {
			syncs++
		}
	}
	dur, _, count := e.rec.totals()
	res.layer = map[string]float64{
		"val_loss":                 runs[0][len(runs[0])-1].FleetValLoss,
		"wire_mb":                  (digest + parcelB) / 1e6 / n,
		"modelled_round_s":         wall.Seconds() / n,
		"gossip.newrun_ms":         msf(dur["gossip.newrun"]) / float64(count["gossip.newrun"]),
		"gossip.round_ms":          msf(dur["gossip.round"]) / float64(count["gossip.round"]),
		"gossip.exchanges":         exch / n,
		"gossip.exchange_failures": fails / n,
		"gossip.unreachable":       unreach / n,
		"gossip.exchange_ok_share": exch / max(exch+fails+unreach, 1),
		"gossip.parcels_moved":     parcels / n,
		"gossip.digest_bytes":      digest / n,
		"gossip.parcel_bytes":      parcelB / n,
		"gossip.convergence_lag":   lag / n,
		"gossip.head_syncs":        syncs / n,
		"scenario.transitions":     float64(transitions),
		"faults.retries":           e.reg.Snapshot().Counters["retry_attempts_total"] / n,
	}
	return res, nil
}

// probe times one worker's local training on its shard with round 0's
// config, and validation on the held-out set, outside the round engine.
func (b *gossipBench) probe(e env, res *result) error {
	pl, err := pilot.New(b.pcfg)
	if err != nil {
		return err
	}
	cfg := gossip.DefaultConfig()
	tc := nn.TrainConfig{Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, Seed: b.seed + 13, ClipGrad: 5}
	const reps = 3
	var train, val []time.Duration
	for i := 0; i < reps; i++ {
		sp := e.rec.begin("pilot.train_shard", -1, i)
		t0 := time.Now()
		if _, err := pl.Train(b.shards[0], tc); err != nil {
			return err
		}
		train = append(train, time.Since(t0))
		e.rec.end(sp)
		sp = e.rec.begin("pilot.validate", -1, i)
		t0 = time.Now()
		if _, err := pl.Validate(b.val, cfg.BatchSize); err != nil {
			return err
		}
		val = append(val, time.Since(t0))
		e.rec.end(sp)
	}
	res.layer["pilot.train_shard_ms"] = median(ms(train))
	res.layer["pilot.validate_ms"] = median(ms(val))
	return nil
}
