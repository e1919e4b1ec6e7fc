// Package fed is the training half of the edge-to-cloud continuum: a
// cloud-side parameter server coordinating a fleet of edge workers, each
// training the same pilot architecture on a disjoint shard of tub data and
// exchanging weight deltas over the emulated WAN. Rounds follow FedAvg —
// broadcast the global weights, train locally, upload delta = local -
// global, aggregate shard-weighted — with a configurable staleness policy:
// a synchronous barrier over every live worker, or a K-of-N quorum that
// cuts stragglers once the K fastest uploads have landed.
//
// The subsystem composes with the existing layers instead of bypassing
// them: workers register as BYOD devices through edge.Hub and heartbeat on
// the fault plan's clock (a worker is out of a round once a sweep evicts
// its device, after a silence of one heartbeat window or more, and the
// round goes on without it); every broadcast and upload is billed through
// netem under the plan's retry policy (partitions turn into real
// backoff-and-retry, and an exhausted budget drops the worker); the global
// checkpoint lands in objstore after every round where the serve
// Registry's ETag poller can hot-reload it; and everything emits fed_*
// spans, counters, and histograms through obs.
//
// The edge half of a round does not depend on the topology, so it lives
// in Fleet (fleet.go): the workers, their devices and the hub's playback
// of their heartbeats (edge.Hub.Play, as for the Fig. 1 pipeline's
// devices) with the one liveness rule every topology reads, parallel
// local training, delta export with error feedback, transfers under
// retry, and checkpoints. Run, the star, adds broadcast, upload, the
// staleness policy, aggregation and the hierarchical partials; package
// gossip runs its peer overlay on the same Fleet.
//
// Determinism is a hard requirement (the chaos tests diff whole runs):
// network billing and aggregation run in worker-index order on the plan's
// seeded RNGs, local training runs workers in parallel but each worker's
// arithmetic is self-contained and seeded, and aggregation accumulates in
// index order — so two same-seed runs produce bit-identical global
// weights and identical fed_* counters.
package fed

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/pilot"
)

// Config shapes one federated training run over the star: the shared
// fleet fields (Workers is at least 1) plus the parameter server's.
type Config struct {
	FleetConfig
	// Quorum is the K of the K-of-N staleness policy: a round aggregates
	// the K fastest uploads and cuts the rest. 0 (or >= Workers) selects
	// the synchronous barrier over every live worker.
	Quorum int
	// Link is the WAN between workers and the parameter server; the zero
	// value selects netem.CampusWAN (which is also the link the stock
	// fault profiles schedule outages on).
	Link netem.Link
	// Hierarchical routes uploads through regional aggregators: workers
	// ship deltas to their region over RegionLink, each region pre-reduces
	// its members' contributions, and only one dense partial per region
	// crosses the WAN to the parameter server. Aggregation arithmetic is
	// identical to the flat mode (both run the same blocked reduction), so
	// for the same participant set the global weights are bit-identical —
	// the topology only changes transport and parallelism.
	Hierarchical bool
	// Regions is the regional-aggregator count for the blocked reduction
	// (and, under Hierarchical, the aggregator fan-in). 0 selects
	// ceil(sqrt(Workers)), the fan-in that minimizes per-round
	// coordination cost N/R + R; values above Workers clamp to Workers.
	Regions int
	// RegionLink is the edge-to-aggregator network under Hierarchical; the
	// zero value selects netem.FabricManaged (regional fabrics are not on
	// the fault profiles' scripted WAN).
	RegionLink netem.Link
	// IngressSerial models serialization occupancy at upload receivers:
	// a receiver handles one transfer at a time, so a worker's upload
	// completes at max(its arrival, receiver busy-until) + duration. Flat
	// mode has one cloud ingress queue (round wall grows ~linearly with
	// fleet size); Hierarchical gets one queue per regional aggregator
	// draining in parallel plus a cloud queue over the R partials (round
	// wall ~N/R + R, sub-linear at R≈sqrt(N)). Off by default so small
	// runs keep the historical parallel-ingress timing.
	IngressSerial bool
	// SyntheticLocal replaces real SGD with a deterministic, seeded
	// pseudo-delta applied to each worker's local weights — the full
	// coordination path (broadcast, encode, upload, aggregate) still runs
	// bit-for-bit, which is what the fleet-scale benchmarks need at 10k
	// workers where real training would dominate the measurement.
	SyntheticLocal bool
}

// DefaultConfig returns a small fleet with the synchronous barrier and no
// compression.
func DefaultConfig() Config {
	return Config{
		FleetConfig: FleetConfig{
			Workers:     4,
			Rounds:      5,
			LocalEpochs: 1,
			BatchSize:   32,
			Seed:        1,
			Compress:    "none",
			Container:   "autolearn-models",
			Object:      "fed/global.ckpt",
		},
		Link: netem.CampusWAN,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.FleetConfig.Validate("fed"); err != nil {
		return err
	}
	switch {
	case c.Quorum < 0 || c.Quorum > c.Workers:
		return fmt.Errorf("fed: quorum %d out of range [0, %d]", c.Quorum, c.Workers)
	case c.Regions < 0:
		return fmt.Errorf("fed: negative region count")
	}
	return nil
}

// sync reports whether the run uses the synchronous barrier.
func (c Config) sync() bool { return c.Quorum == 0 || c.Quorum >= c.Workers }

// Profiles lists the accepted -compress profile names.
func Profiles() []string { return []string{"none", "fp16", "topk"} }

// Run is one federated training run in progress: the parameter server's
// state over the shared edge fleet.
type Run struct {
	*Fleet
	Cfg    Config
	Global *pilot.Pilot

	val []pilot.Sample
}

// NewRun assembles a run: the global pilot (the parameter server's copy)
// over a fleet with one worker per shard (see NewFleet). shards must have
// Cfg.Workers entries; val is the held-out set the server scores the
// global model on after each round.
func NewRun(cfg Config, deps Deps, global *pilot.Pilot, shards [][]pilot.Sample, val []pilot.Sample) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if global == nil {
		return nil, fmt.Errorf("fed: nil global pilot")
	}
	if cfg.Link == (netem.Link{}) {
		cfg.Link = netem.CampusWAN
	}
	if cfg.RegionLink == (netem.Link{}) {
		cfg.RegionLink = netem.FabricManaged
	}
	r := &Run{Cfg: cfg, Global: global, val: val}
	var err error
	if r.Fleet, err = NewFleet("fed", 0xfed, &r.Cfg.FleetConfig, deps, global, shards); err != nil {
		return nil, err
	}
	r.instrument()
	return r, nil
}

// ShardSamples splits samples into n contiguous, disjoint shards — the
// non-IID flavor of federation where each device only ever saw its own
// stretch of driving. Every shard gets at least len/n samples; the first
// len%n shards take one extra.
func ShardSamples(samples []pilot.Sample, n int) ([][]pilot.Sample, error) {
	if n < 1 {
		return nil, fmt.Errorf("fed: need at least 1 shard")
	}
	if len(samples) < n {
		return nil, fmt.Errorf("fed: %d samples cannot fill %d shards", len(samples), n)
	}
	out := make([][]pilot.Sample, n)
	base, extra := len(samples)/n, len(samples)%n
	at := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out[i] = samples[at : at+sz]
		at += sz
	}
	return out, nil
}
