package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/fed"
	"repro/internal/gossip"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// replayGoldenVersion tags the golden snapshot schema; bump it (and
// regenerate with UPDATE_GOLDEN=1) when the replay's shape changes.
const replayGoldenVersion = 1

const replayW, replayH = 24, 16

func replayPilotCfg() pilot.Config {
	c := pilot.DefaultConfig(pilot.Linear, replayW, replayH, 1)
	c.ConvFilters1 = 4
	c.ConvFilters2 = 8
	c.DenseUnits = 16
	return c
}

func replaySamples(t testing.TB, n int) []pilot.Sample {
	t.Helper()
	recs := make([]sim.Record, n)
	for i := 0; i < n; i++ {
		f, err := sim.NewFrame(replayW, replayH, 1)
		if err != nil {
			t.Fatal(err)
		}
		angle := math.Sin(float64(i) / 5)
		col := int((angle + 1) / 2 * float64(replayW-1))
		for y := 0; y < replayH; y++ {
			f.Set(col, y, 255)
		}
		recs[i] = sim.Record{
			Index: i, Frame: f,
			Steering: angle, Throttle: 0.5,
			Timestamp: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 50 * time.Millisecond),
		}
	}
	samples, err := pilot.SamplesFromRecords(replayPilotCfg(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// replayCase pins one round-engine run: a topology and its config, run
// under a library scenario file or a generated fault profile at a fixed
// seed, and the golden its snapshot must match.
type replayCase struct {
	name   string
	golden string
	// scn names a file under scenarios/; profile names a fault profile
	// (exactly one of the two is set).
	scn, profile string
	seed         int64
	workers      int
	samples      int
	// run executes the topology over deps and returns the weights the run
	// ends on, or nil to leave the weights line out of the snapshot.
	run func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64
}

// replayCases are the engine's cross-commit pins: a refactor of the round
// engine that changes any span, counter, retry, or weight bit fails here
// even when it changes every run of the new build the same way.
var replayCases = []replayCase{
	{
		// The star under a shaped, lossy WAN. Its golden predates the
		// weights line, so the run does not report weights.
		name: "star/lossy-wan", golden: "replay_lossy_wan_v1.golden",
		scn: "lossy-wan.scn", seed: 7, workers: 3, samples: 45,
		run: func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
			cfg := fed.DefaultConfig()
			cfg.Workers = 3
			cfg.Rounds = 2
			cfg.BatchSize = 8
			cfg.Seed = 7
			cfg.RoundGap = 45 * time.Second
			runFed(t, cfg, deps, shards, val)
			return nil
		},
	},
	{
		// Star with top-k under a permanent WAN partition: uploads drop
		// with reason=link and the drops clear the workers' residuals.
		name: "star/topk/cloud-partition", golden: "replay_star_topk_cloud_partition_v1.golden",
		scn: "cloud-partition.scn", seed: 21, workers: 3, samples: 45,
		run: func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
			cfg := fed.DefaultConfig()
			cfg.Workers = 3
			cfg.Rounds = 6
			cfg.BatchSize = 8
			cfg.Seed = 21
			cfg.Compress = "topk"
			cfg.RoundGap = 15 * time.Second
			return runFed(t, cfg, deps, shards, val)
		},
	},
	{
		// Regional aggregators with serialized ingress, a 3-of-4 quorum,
		// top-k and synthetic local steps under a cascading outage that
		// partitions both the WAN and the regional fabric and silences a
		// worker's heartbeat.
		name: "hier/quorum/topk/cascading-outage", golden: "replay_hier_quorum_topk_cascading_outage_v1.golden",
		scn: "cascading-outage.scn", seed: 5, workers: 4, samples: 60,
		run: func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
			cfg := fed.DefaultConfig()
			cfg.Workers = 4
			cfg.Rounds = 5
			cfg.BatchSize = 8
			cfg.Seed = 5
			cfg.Quorum = 3
			cfg.Compress = "topk"
			cfg.RoundGap = 15 * time.Second
			cfg.Hierarchical = true
			cfg.IngressSerial = true
			cfg.SyntheticLocal = true
			return runFed(t, cfg, deps, shards, val)
		},
	},
	{
		// Gossip with top-k under the same partition: the mesh keeps
		// exchanging while the cloud head goes headless.
		name: "gossip/topk/cloud-partition", golden: "replay_gossip_topk_cloud_partition_v1.golden",
		scn: "cloud-partition.scn", seed: 21, workers: 3, samples: 45,
		run: func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
			cfg := gossip.DefaultConfig()
			cfg.Workers = 3
			cfg.Rounds = 6
			cfg.BatchSize = 8
			cfg.Seed = 21
			cfg.Compress = "topk"
			cfg.RoundGap = 15 * time.Second
			return runGossip(t, cfg, deps, shards, val)
		},
	},
	{
		// Gossip with fp16 and a free rider under heartbeat gaps: at 20 s
		// per sample a round's training outlasts the heartbeat window, so
		// sweeps evict the scripted workers mid-round and they re-onboard
		// once their silence windows close.
		name: "gossip/fp16/heartbeat-gap", golden: "replay_gossip_fp16_heartbeat_gap_v1.golden",
		profile: "heartbeat-gap", seed: 3, workers: 4, samples: 60,
		run: func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
			cfg := gossip.DefaultConfig()
			cfg.Workers = 4
			cfg.Rounds = 5
			cfg.BatchSize = 8
			cfg.Seed = 3
			cfg.Compress = "fp16"
			cfg.FreeRiders = 1
			cfg.PerSampleCost = 20 * time.Second
			cfg.RoundGap = 15 * time.Second
			return runGossip(t, cfg, deps, shards, val)
		},
	},
	{
		// The star with real local SGD, a 3-of-4 quorum and the raw
		// codec, whose uploads are the exact float64 deltas, under a
		// shaped, lossy WAN.
		name: "star/raw/quorum/lossy-wan", golden: "replay_star_raw_quorum_lossy_wan_v1.golden",
		scn: "lossy-wan.scn", seed: 11, workers: 4, samples: 60,
		run: func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
			cfg := fed.DefaultConfig()
			cfg.Workers = 4
			cfg.Rounds = 3
			cfg.BatchSize = 8
			cfg.Seed = 11
			cfg.Quorum = 3
			cfg.RoundGap = 30 * time.Second
			return runFed(t, cfg, deps, shards, val)
		},
	},
	{
		// A 200-worker hierarchical star with serialized ingress,
		// synthetic local steps and the raw codec under a cascading
		// outage: the fleet-scale path at a size a test can afford.
		name: "hier/raw/synthetic-200/cascading-outage", golden: "replay_hier_raw_synthetic_cascading_outage_v1.golden",
		scn: "cascading-outage.scn", seed: 9, workers: 200, samples: 250,
		run: func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
			cfg := fed.DefaultConfig()
			cfg.Workers = 200
			cfg.Rounds = 3
			cfg.BatchSize = 8
			cfg.Seed = 9
			cfg.RoundGap = 15 * time.Second
			cfg.Hierarchical = true
			cfg.IngressSerial = true
			cfg.SyntheticLocal = true
			return runFed(t, cfg, deps, shards, val)
		},
	},
	{
		// Gossip on its default raw codec under a cloud partition: parcels
		// carry the exact float64 deltas scaled by each shard weight.
		name: "gossip/raw/cloud-partition", golden: "replay_gossip_raw_cloud_partition_v1.golden",
		scn: "cloud-partition.scn", seed: 13, workers: 4, samples: 60,
		run: func(t testing.TB, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
			cfg := gossip.DefaultConfig()
			cfg.Workers = 4
			cfg.Rounds = 4
			cfg.BatchSize = 8
			cfg.Seed = 13
			cfg.RoundGap = 15 * time.Second
			return runGossip(t, cfg, deps, shards, val)
		},
	},
}

// runFed executes a star run and returns its final global weights.
func runFed(t testing.TB, cfg fed.Config, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
	t.Helper()
	global, err := pilot.New(replayPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	run, err := fed.NewRun(cfg, deps, global, shards, val)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	return flatWeights(global)
}

// runGossip executes a gossip run and returns the weights of the cloud
// head's last checkpoint.
func runGossip(t testing.TB, cfg gossip.Config, deps fed.Deps, shards [][]pilot.Sample, val []pilot.Sample) []float64 {
	t.Helper()
	genesis, err := pilot.New(replayPilotCfg())
	if err != nil {
		t.Fatal(err)
	}
	run, err := gossip.NewRun(cfg, deps, genesis, shards, val)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := deps.Store.Get(res.CheckpointContainer, res.CheckpointObject)
	if err != nil {
		t.Fatal(err)
	}
	head, err := pilot.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return flatWeights(head)
}

func flatWeights(p *pilot.Pilot) []float64 {
	var out []float64
	for _, prm := range p.Model().Params() {
		out = append(out, prm.W.Data...)
	}
	return out
}

// replay drives one case on fresh substrates and returns its snapshot:
// the trace digest and line count, the Prometheus text, and the weights'
// Float64bits digest.
func replay(t testing.TB, c replayCase) []byte {
	t.Helper()
	o := obs.NewObserver()
	deps := fed.Deps{
		Net:   netem.NewNet(c.seed),
		Hub:   edge.NewHub(),
		Store: objstore.New(),
		Obs:   o,
		Start: tableEpoch,
	}
	var s *Scenario
	var err error
	if c.profile != "" {
		s, err = Profile(c.profile, c.seed)
	} else {
		s, err = Load(filepath.Join("..", "..", "scenarios", c.scn))
	}
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(s, c.seed, tableEpoch)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(o)
	deps.Plan = rt.Plan()
	rt.Attach(deps.Net)

	samples := replaySamples(t, c.samples)
	nVal := len(samples) / 5
	shards, err := fed.ShardSamples(samples[:len(samples)-nVal], c.workers)
	if err != nil {
		t.Fatal(err)
	}
	weights := c.run(t, deps, shards, samples[len(samples)-nVal:])
	// Play the clock out past the scenario horizon so every phase
	// transition fires regardless of how long the rounds took.
	rt.Clock().Advance(s.Horizon())
	transitions := rt.Finish()

	var tb, pb bytes.Buffer
	if err := o.Tracer.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if err := o.Metrics.WriteProm(&pb); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	fmt.Fprintf(&got, "scenario-replay golden v%d\n", replayGoldenVersion)
	fmt.Fprintf(&got, "scenario: %s seed %d\n", s.Name, c.seed)
	fmt.Fprintf(&got, "transitions: %d\n", transitions)
	fmt.Fprintf(&got, "trace_sha256: %x\n", sha256.Sum256(tb.Bytes()))
	fmt.Fprintf(&got, "trace_lines: %d\n", bytes.Count(tb.Bytes(), []byte("\n")))
	if weights != nil {
		h := sha256.New()
		var b [8]byte
		for _, v := range weights {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		fmt.Fprintf(&got, "weights: %d float64, sha256 %x\n", len(weights), h.Sum(nil))
	}
	fmt.Fprintf(&got, "-- counters --\n")
	got.Write(pb.Bytes())
	return got.Bytes()
}

// TestScenarioReplayGolden replays every pinned case with the same seed
// at the default, 1 and 3 nn kernel workers: the runs must export
// byte-identical snapshots, and the snapshot must match the case's
// checked-in golden (regenerate with UPDATE_GOLDEN=1).
func TestScenarioReplayGolden(t *testing.T) {
	for _, c := range replayCases {
		t.Run(c.name, func(t *testing.T) {
			got := replay(t, c)
			for _, w := range []int{1, 3} {
				prev := nn.SetMaxWorkers(w)
				again := replay(t, c)
				nn.SetMaxWorkers(prev)
				if !bytes.Equal(got, again) {
					t.Fatalf("same-seed replays exported different snapshots at the default and %d kernel workers", w)
				}
			}
			golden := filepath.Join("testdata", c.golden)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", golden, len(got))
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				for i, line := range diffLines(string(got), string(want)) {
					if i > 10 {
						t.Logf("... (more differences)")
						break
					}
					t.Logf("diff: %s", line)
				}
				t.Fatalf("replay snapshot diverged from %s (regenerate with UPDATE_GOLDEN=1 if intended)", golden)
			}
		})
	}
}

func diffLines(got, want string) []string {
	g := bytes.Split([]byte(got), []byte("\n"))
	w := bytes.Split([]byte(want), []byte("\n"))
	var out []string
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = string(g[i])
		}
		if i < len(w) {
			wl = string(w[i])
		}
		if gl != wl {
			out = append(out, fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl))
		}
	}
	return out
}
