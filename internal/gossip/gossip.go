// Package gossip is the decentralized alternative to fed's star
// topology: no parameter server, no single aggregation point. Each edge
// worker trains on its shard, wraps the weight-scaled delta into a
// content-addressed parcel, and disseminates it by push-pull gossip — a
// seeded Kademlia-style peer table (XOR distance over FNV node IDs,
// k-buckets) picks each round's partners, the pair trades version-vector
// digests, and whichever parcels either side is missing cross the
// per-pair netem link as compressed payloads. Periodic anti-entropy
// exchanges with the farthest occupied bucket repair long-range drift,
// and a passive cloud head syncs over the WAN purely to checkpoint —
// when a scenario partitions the cloud link, the peer mesh keeps
// converging among reachable workers and the head simply falls behind
// until the partition heals (the exact failure that stalls the star
// fleet outright).
//
// Determinism is inherited from the parcel model rather than enforced
// per-operation: a worker's weights are a pure function of the parcel
// set it holds (rebuild from the shared init in canonical (round,
// origin) order), every parcel is encoded once at its origin through the
// fed codecs (fp16/top-k with error feedback), and all network billing
// runs sequentially in worker-index order on the fault plan's seeded
// RNGs — so two same-seed runs export byte-identical traces, and two
// workers that have heard the same news have bit-identical models no
// matter which route the news took.
//
// The edge learner itself is fed.Fleet, the core the star runs on too:
// workers, their devices and the one liveness rule, parallel local
// training, delta export with error feedback, transfers under retry, and
// checkpoints. This package owns only what is peer-to-peer: parcels, peer
// tables, exchanges, store rebuilds and the cloud head.
package gossip

import (
	"fmt"

	"repro/internal/fed"
	"repro/internal/netem"
	"repro/internal/pilot"
)

// HeadName is the passive cloud peer's device name — present in every
// worker's address book but never in the peer mesh (it is reached over
// the cloud link, and only for checkpoint sync).
const HeadName = "cloud-head"

// Config shapes one gossip training run: the shared fleet fields
// (Workers is at least 2 — gossip needs a peer; Compress profiles share
// fed's codecs, with per-origin error feedback under "topk") plus the
// overlay's.
type Config struct {
	fed.FleetConfig
	// Fanout is how many gossip partners each worker contacts per round
	// (0 selects 3, the classic epidemic fanout).
	Fanout int
	// BucketSize is the Kademlia k — peers per bucket (0 selects 4).
	BucketSize int
	// AntiEntropyEvery adds, every Nth round, one extra exchange per
	// worker with a member of its farthest occupied bucket — the
	// long-range repair pass. 0 selects 3; negative disables.
	AntiEntropyEvery int
	// FreeRiders marks the first F workers as non-training participants:
	// they gossip (store and forward parcels) but never produce one. The
	// overlay must carry them without stalling convergence.
	FreeRiders int
	// PeerLink is the base profile for the worker-to-worker mesh; every
	// pair gets a named copy (netem.Mesh). Zero selects netem.WiFiLocal.
	PeerLink netem.Link
	// CloudLink is the WAN to the passive head; zero selects
	// netem.CampusWAN — the link the stock scenarios partition.
	CloudLink netem.Link
}

// DefaultConfig returns a small mesh with classic epidemic parameters.
func DefaultConfig() Config {
	return Config{
		FleetConfig: fed.FleetConfig{
			Workers:     4,
			Rounds:      5,
			LocalEpochs: 1,
			BatchSize:   32,
			Seed:        1,
			Compress:    "none",
			Container:   "autolearn-models",
			Object:      "gossip/global.ckpt",
		},
		Fanout:           3,
		BucketSize:       4,
		AntiEntropyEvery: 3,
		PeerLink:         netem.WiFiLocal,
		CloudLink:        netem.CampusWAN,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Workers < 2 {
		return fmt.Errorf("gossip: need at least 2 workers, got %d", c.Workers)
	}
	if err := c.FleetConfig.Validate("gossip"); err != nil {
		return err
	}
	switch {
	case c.Fanout < 0:
		return fmt.Errorf("gossip: negative fanout")
	case c.BucketSize < 0:
		return fmt.Errorf("gossip: negative bucket size")
	case c.FreeRiders < 0 || c.FreeRiders >= c.Workers:
		return fmt.Errorf("gossip: free riders %d out of range [0, %d)", c.FreeRiders, c.Workers)
	}
	return nil
}

// fanout resolves the effective fanout.
func (c Config) fanout() int {
	if c.Fanout == 0 {
		return 3
	}
	return c.Fanout
}

// antiEntropyEvery resolves the effective anti-entropy cadence
// (0 means disabled after resolution).
func (c Config) antiEntropyEvery() int {
	if c.AntiEntropyEvery == 0 {
		return 3
	}
	if c.AntiEntropyEvery < 0 {
		return 0
	}
	return c.AntiEntropyEvery
}

// Deps are the continuum substrates a run composes with: Net and Hub are
// required, the rest optional.
type Deps = fed.Deps

// worker is one fleet member with its overlay state: peer table (which
// holds its node ID), parcel replica, and shard weight. The embedded
// fed.Worker's base is rebuilt from the store before each training pass,
// and its local pilot is the trainable copy diffed against it.
type worker struct {
	*fed.Worker
	table  *Table
	store  *Store
	weight float64 // shard fraction of the training total
	// caughtUp is the count of leading rounds whose produced parcels this
	// worker fully holds (monotone: stores are grow-only).
	caughtUp int
	// offline marks a worker out of this round (see Run.out).
	offline bool
	// freeRider marks a store-and-forward-only participant.
	freeRider bool
}

// headState is the passive cloud peer: a parcel replica plus the model
// it checkpoints from. It never trains and never initiates.
type headState struct {
	store *Store
	model *pilot.Pilot
	// dirty marks parcels landed since the last checkpoint rebuild.
	dirty bool
}

// Run is one gossip training run in progress: the peer overlay over the
// shared edge fleet.
type Run struct {
	*fed.Fleet
	Cfg Config

	// workers are the fleet's members with their overlay state, by index.
	workers []*worker
	head    *headState
	val     []pilot.Sample
	mesh    *netem.Mesh
	// initVals is the shared genesis weights every store rebuild starts
	// from (the image flashed at provisioning).
	initVals [][]float64
	// union is a scratch pilot rebuilt from the union store for
	// validation — the "fleet head version" a rejoining peer converges to.
	union *pilot.Pilot
	// produced[r] lists the parcel keys round r generated, for
	// convergence-lag accounting.
	produced [][]Key
}

// NewRun assembles a run: a fleet with one worker per shard (see
// fed.NewFleet), a seeded peer table per worker over the full member
// list, the per-pair link mesh, the shared genesis weights, and the
// passive cloud head. shards must have Cfg.Workers entries; val is the
// held-out set scored after each round.
func NewRun(cfg Config, deps Deps, genesis *pilot.Pilot, shards [][]pilot.Sample, val []pilot.Sample) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if genesis == nil {
		return nil, fmt.Errorf("gossip: nil genesis pilot")
	}
	if cfg.PeerLink == (netem.Link{}) {
		cfg.PeerLink = netem.WiFiLocal
	}
	if cfg.CloudLink == (netem.Link{}) {
		cfg.CloudLink = netem.CampusWAN
	}
	r := &Run{Cfg: cfg, val: val, head: &headState{store: NewStore()}}
	var err error
	if r.Fleet, err = fed.NewFleet("gossip", 0x905512, &r.Cfg.FleetConfig, deps, genesis, shards); err != nil {
		return nil, err
	}

	// Genesis weights: every rebuild starts from these exact bits, and
	// the head holds them until its first sync.
	r.initVals = fed.Snapshot(genesis)
	if r.union, err = genesis.Clone(); err != nil {
		return nil, fmt.Errorf("gossip: union pilot: %w", err)
	}
	if r.head.model, err = genesis.Clone(); err != nil {
		return nil, fmt.Errorf("gossip: head pilot: %w", err)
	}

	names := make([]string, cfg.Workers)
	total := 0
	for i, fw := range r.Workers {
		names[i] = fw.Name
		if i >= cfg.FreeRiders {
			total += len(shards[i])
		}
	}
	if r.mesh, err = netem.NewMesh(cfg.PeerLink, names); err != nil {
		return nil, fmt.Errorf("gossip: peer mesh: %w", err)
	}
	for i, fw := range r.Workers {
		w := &worker{
			Worker:    fw,
			table:     NewTable(fw.Name, cfg.BucketSize),
			store:     NewStore(),
			freeRider: i < cfg.FreeRiders,
		}
		if !w.freeRider {
			w.weight = float64(len(shards[i])) / float64(total)
		}
		Seed(w.table, names)
		r.workers = append(r.workers, w)
	}
	r.instrument()
	return r, nil
}
