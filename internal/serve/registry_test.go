package serve

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/objstore"
	"repro/internal/pilot"
)

// TestRegistryReplicasBitwise: the registry decodes a checkpoint once
// and clones the other replicas, so at 8 replicas, float and int8, every
// replica must answer InferBatch with exactly the bits of a fresh
// pilot.Load of the same bytes, and no two replicas may share a param
// backing array. The replicas infer concurrently, as shards do.
func TestRegistryReplicasBitwise(t *testing.T) {
	const replicas = 8
	cfg := pilot.DefaultConfig(pilot.Linear, testW, testH, 1)
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseUnits = 4, 8, 16
	cfg.BatchNorm = true
	p, err := pilot.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, prm := range p.Model().Params() {
		for j := range prm.W.Data {
			prm.W.Data[j] = prm.W.Data[j]*0.75 + 0.01*float64(j%7) // not a fresh init, running stats included
		}
	}
	data := checkpointBytes(t, p)
	st := objstore.New()
	if err := st.CreateContainer(testContainer); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(testContainer, testObject, data, nil); err != nil {
		t.Fatal(err)
	}
	samples := []pilot.Sample{testSample(t, 1), testSample(t, 2), testSample(t, 3)}

	for _, quant := range []string{"", nn.QuantInt8} {
		t.Run(fmt.Sprintf("quant=%q", quant), func(t *testing.T) {
			reg, err := NewRegistry(st, testContainer)
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.SetReplicas(replicas); err != nil {
				t.Fatal(err)
			}
			if err := reg.SetQuant(quant); err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(testModel, testObject); err != nil {
				t.Fatal(err)
			}
			fresh, err := pilot.Load(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.EnableQuant(quant); err != nil {
				t.Fatal(err)
			}
			want, err := fresh.InferBatch(samples)
			if err != nil {
				t.Fatal(err)
			}

			owner := map[*float64]int{}
			got := make([][][2]float64, replicas)
			errs := make([]error, replicas)
			var wg sync.WaitGroup
			for shard := 0; shard < replicas; shard++ {
				rp, ok := reg.PilotShard(testModel, shard)
				if !ok {
					t.Fatalf("no pilot for shard %d", shard)
				}
				if rp.QuantMode() != quant {
					t.Fatalf("shard %d quant mode %q, want %q", shard, rp.QuantMode(), quant)
				}
				for i, prm := range rp.Model().Params() {
					if prev, ok := owner[&prm.W.Data[0]]; ok {
						t.Fatalf("shards %d and %d share param %d's backing array", prev, shard, i)
					}
					owner[&prm.W.Data[0]] = shard
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[shard], errs[shard] = rp.InferBatch(samples)
				}()
			}
			wg.Wait()
			for shard := range got {
				if errs[shard] != nil {
					t.Fatalf("shard %d: %v", shard, errs[shard])
				}
				for i := range want {
					for k := range want[i] {
						if math.Float64bits(got[shard][i][k]) != math.Float64bits(want[i][k]) {
							t.Fatalf("shard %d sample %d output %d: %g, a fresh Load gives %g",
								shard, i, k, got[shard][i][k], want[i][k])
						}
					}
				}
			}
		})
	}
}
