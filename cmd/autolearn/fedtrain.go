package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/edge"
	"repro/internal/fed"
	"repro/internal/gossip"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/track"
)

// topologyFlags lists the fed-train flags only one topology reads. Setting
// one under the other topology is an error rather than a silent no-op.
var topologyFlags = map[string][]string{
	"star":   {"quorum", "hierarchical", "regions", "ingress-serial"},
	"gossip": {"fanout", "peer-k", "anti-entropy", "peer-link"},
}

// cmdFedTrain drives the federated fleet: collect a tub's worth of
// driving, shard it across N simulated edge workers, and run rounds over
// the emulated WAN — FedAvg through a parameter server, or parcel gossip
// over a peer overlay — optionally under a fault profile or scenario and
// delta compression.
func cmdFedTrain(args []string) error {
	fs := flag.NewFlagSet("fed-train", flag.ExitOnError)
	workers := fs.Int("workers", 4, "edge workers in the fleet")
	rounds := fs.Int("rounds", 5, "training rounds")
	topology := fs.String("topology", "star", "dissemination topology: star (parameter server) or gossip (peer-to-peer overlay)")
	fanout := fs.Int("fanout", 3, "gossip partners each worker contacts per round (gossip topology)")
	peerK := fs.Int("peer-k", 4, "Kademlia k-bucket capacity for the peer table (gossip topology)")
	antiEntropy := fs.Int("anti-entropy", 3, "extra farthest-bucket exchange every N rounds, <0 disables (gossip topology)")
	peerLinkName := fs.String("peer-link", "wifi-local", "link profile for the peer mesh (gossip topology)")
	quorum := fs.Int("quorum", 0, "K-of-N quorum (0 = synchronous barrier; star topology)")
	compress := fs.String("compress", "none", "delta compression: "+strings.Join(fed.Profiles(), "|"))
	topKFrac := fs.Float64("topk", 0.2, "fraction of delta entries the topk profile keeps")
	profile := fs.String("faults", "", "fault profile, run as a generated scenario: "+strings.Join(scenario.Profiles(), "|")+" (empty = fault-free)")
	scnFile := fs.String("scenario", "", "scenario file scripting faults and link shapes (exclusive with -faults)")
	model := fs.String("model", "linear", "pilot kind")
	trackName := fs.String("track", "default-oval", "track name")
	ticks := fs.Int("ticks", 800, "ticks of driving to collect at 20 Hz")
	epochs := fs.Int("epochs", 1, "local epochs per round")
	batch := fs.Int("batch", 32, "local batch size")
	seed := fs.Int64("seed", 1, "run seed (fleet speeds, faults, training)")
	roundGap := fs.Duration("round-gap", 15*time.Second, "idle virtual time between rounds (lets fault windows progress)")
	hier := fs.Bool("hierarchical", false, "route uploads through regional aggregators, one WAN partial per region (star topology)")
	regions := fs.Int("regions", 0, "regional aggregator count, 0 = ceil(sqrt(workers)) (star topology)")
	ingressSerial := fs.Bool("ingress-serial", false, "serialize uploads at each receiver to model fan-in occupancy (star topology)")
	of := addObsFlags(fs)
	fs.Parse(args)

	// Reject flag mistakes before the drive is collected.
	other, ok := map[string]string{"star": "gossip", "gossip": "star"}[*topology]
	if !ok {
		return fmt.Errorf("fed-train: unknown -topology %q (have star, gossip)", *topology)
	}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(topologyFlags[other], f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fmt.Errorf("fed-train: %s only apply to -topology %s", strings.Join(ignored, ", "), other)
	}
	peerLink, ok := netem.ByName(*peerLinkName)
	if !ok {
		return fmt.Errorf("fed-train: unknown -peer-link %q", *peerLinkName)
	}
	rt, err := faultRuntime("fed-train", *profile, *scnFile, *seed)
	if err != nil {
		return err
	}

	cam := sim.SmallCameraConfig()
	res, _, err := sessionOn(*trackName, cam, func(trk *track.Track, car *sim.Car) sim.Driver {
		return sim.NewHumanDriver(sim.NewPurePursuit(trk, car.Cfg), *seed, 20)
	}, *ticks)
	if err != nil {
		return err
	}
	pcfg := pilot.DefaultConfig(pilot.Kind(*model), cam.Width, cam.Height, cam.Channels)
	samples, err := pilot.SamplesFromRecords(pcfg, res.Records)
	if err != nil {
		return err
	}
	nVal := len(samples) / 5
	if nVal < 1 {
		return fmt.Errorf("fed-train: only %d samples collected; raise -ticks", len(samples))
	}
	val := samples[len(samples)-nVal:]
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], *workers)
	if err != nil {
		return err
	}
	fmt.Printf("== fleet: %d workers, %d samples each (~), %d held out\n",
		*workers, (len(samples)-nVal) / *workers, nVal)

	// shared sets the fleet fields both topologies read.
	shared := func(c *fed.FleetConfig) {
		c.Workers, c.Rounds = *workers, *rounds
		c.LocalEpochs, c.BatchSize = *epochs, *batch
		c.Seed, c.RoundGap = *seed, *roundGap
		c.Compress, c.TopKFrac = *compress, *topKFrac
	}

	o := of.observer()
	deps := fed.Deps{
		Net:   netem.NewNet(*seed),
		Hub:   edge.NewHub(),
		Store: objstore.New(),
		Plan:  rt.Plan(),
		Obs:   o,
	}
	rt.Start(o)
	rt.Attach(deps.Net)
	fmt.Printf("== %s\n", rt.Describe())

	initial, err := pilot.New(pcfg)
	if err != nil {
		return err
	}
	if *topology == "gossip" {
		cfg := gossip.DefaultConfig()
		shared(&cfg.FleetConfig)
		cfg.Fanout = *fanout
		cfg.BucketSize = *peerK
		cfg.AntiEntropyEvery = *antiEntropy
		cfg.PeerLink = peerLink
		err = runGossipTrain(cfg, deps, initial, shards, val)
	} else {
		cfg := fed.DefaultConfig()
		shared(&cfg.FleetConfig)
		cfg.Quorum = *quorum
		cfg.Hierarchical = *hier
		cfg.Regions = *regions
		cfg.IngressSerial = *ingressSerial
		err = runStarTrain(cfg, deps, initial, shards, val)
	}
	if err != nil {
		return err
	}
	return finishRun(rt, o, of)
}

// serveCheckpoints rides the serving side along in the run's trace: once
// a round has written the checkpoint at cfg's location, the hook installed
// on deps registers it as name-global, and every later round's ETag poll
// hot-swaps it, so the exported trace runs end to end from worker train
// through the WAN into the serving reload. Registration and polls read
// the fleet's store, so they run under the fault plan's retry policy
// (ops serve_register and serve_poll). A gossip head cut off by a
// partition may write no checkpoint for several rounds (or ever); the run
// carries on regardless. The returned counter accumulates hot reloads.
func serveCheckpoints(deps *fed.Deps, name string, cfg fed.FleetConfig) (*int, error) {
	reloads := new(int)
	if cfg.Container == "" {
		return reloads, nil
	}
	sreg, err := serve.NewRegistry(deps.Store, cfg.Container)
	if err != nil {
		return nil, err
	}
	sreg.Instrument(deps.Obs.Metrics)
	sreg.SetTracer(deps.Obs.Tracer)
	registered := false
	deps.AfterRound = func(round int, sc obs.SpanContext) error {
		if !registered {
			if _, err := deps.Store.Head(cfg.Container, cfg.Object); err != nil {
				return nil
			}
			registered = true
			return deps.Plan.Do("serve_register", func(int) (time.Duration, error) {
				return 0, sreg.RegisterCtx(sc, name+"-global", cfg.Object)
			})
		}
		return deps.Plan.Do("serve_poll", func(int) (time.Duration, error) {
			n, err := sreg.PollOnceCtx(sc)
			*reloads += n
			return 0, err
		})
	}
	return reloads, nil
}

// runStarTrain is fed-train's parameter-server mode.
func runStarTrain(cfg fed.Config, deps fed.Deps, global *pilot.Pilot, shards [][]pilot.Sample, val []pilot.Sample) error {
	reloads, err := serveCheckpoints(&deps, "fed", cfg.FleetConfig)
	if err != nil {
		return err
	}
	run, err := fed.NewRun(cfg, deps, global, shards, val)
	if err != nil {
		return err
	}
	policy := "synchronous barrier"
	if cfg.Quorum > 0 && cfg.Quorum < cfg.Workers {
		policy = fmt.Sprintf("%d-of-%d quorum", cfg.Quorum, cfg.Workers)
	}
	topo := "flat"
	if cfg.Hierarchical {
		topo = fmt.Sprintf("hierarchical (%d regions)", cfg.EffectiveRegions())
	}
	fmt.Printf("== fed-train: %s, %s, compress=%s, %d params\n", policy, topo, cfg.Compress, global.ParamCount())

	out, err := run.Execute()
	if err != nil {
		return err
	}
	for _, rr := range out.Rounds {
		fmt.Printf("   round %d: %d aggregated, %d dropped, %d cut, wall %8v, %7.1f KB on wire, val loss %.4f\n",
			rr.Round+1, len(rr.Participants), len(rr.Dropped), len(rr.Cut),
			rr.Wall.Round(time.Millisecond), float64(rr.BytesOnWire())/1024, rr.ValLoss)
	}
	fmt.Printf("== final val loss %.4f, %.1f KB total on wire, mean round wall %v\n",
		out.FinalValLoss, float64(out.TotalBytes)/1024, out.MeanRoundWall.Round(time.Millisecond))
	if out.CheckpointContainer != "" {
		fmt.Printf("== global checkpoint at %s/%s (served as fed-global, %d hot reloads)\n",
			out.CheckpointContainer, out.CheckpointObject, *reloads)
	}
	return nil
}

// runGossipTrain is fed-train's peer-to-peer mode: same fleet, same data,
// same substrates, but dissemination runs over the gossip overlay instead
// of the parameter server.
func runGossipTrain(cfg gossip.Config, deps fed.Deps, genesis *pilot.Pilot, shards [][]pilot.Sample, val []pilot.Sample) error {
	reloads, err := serveCheckpoints(&deps, "gossip", cfg.FleetConfig)
	if err != nil {
		return err
	}
	run, err := gossip.NewRun(cfg, deps, genesis, shards, val)
	if err != nil {
		return err
	}
	fmt.Printf("== fed-train: gossip overlay, fanout %d, bucket k=%d, anti-entropy every %d, compress=%s, %d params\n",
		run.Cfg.Fanout, run.Cfg.BucketSize, run.Cfg.AntiEntropyEvery, cfg.Compress, genesis.ParamCount())
	out, err := run.Execute()
	if err != nil {
		return err
	}
	for _, rr := range out.Rounds {
		head := "synced"
		if !rr.HeadSynced {
			head = "headless"
		}
		fmt.Printf("   round %d: %d trained, %d offline, %d exchanges (%d parcels), lag %d, %s, wall %8v, %7.1f KB on wire, fleet loss %.4f\n",
			rr.Round+1, len(rr.Trained), len(rr.Offline), rr.Exchanges, rr.ParcelsMoved,
			rr.ConvergenceLag, head, rr.Wall.Round(time.Millisecond),
			float64(rr.BytesOnWire())/1024, rr.FleetValLoss)
	}
	fmt.Printf("== final fleet loss %.4f, head loss %.4f, %.1f KB total on wire, %d/%d head syncs\n",
		out.FinalFleetValLoss, out.FinalHeadValLoss, float64(out.TotalBytes)/1024,
		out.HeadSyncs, len(out.Rounds))
	if out.CheckpointContainer != "" {
		fmt.Printf("== head checkpoint at %s/%s (served as gossip-global, %d hot reloads)\n",
			out.CheckpointContainer, out.CheckpointObject, *reloads)
	}
	return nil
}
