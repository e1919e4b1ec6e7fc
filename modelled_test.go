package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/eval"
)

// TestModelledGolden runs every benchmark row that reports a modelled
// number (E2's training time per GPU SKU, E11, E12, E13 and E15's round
// wall, wire bytes, losses, transitions, convergence and partition
// survival, and E14's int8 drift) and compares the numbers, at full
// precision, with
// testdata/modelled.golden (regenerate with UPDATE_GOLDEN=1). The seed
// and the virtual clock fix them, so any difference is a change in
// behaviour, not host noise. It then asserts the experiments' headline
// inequalities on the same numbers.
func TestModelledGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every federated, fleet-scale, scenario and gossip experiment once")
	}
	got := map[string]float64{}
	var out bytes.Buffer
	fmt.Fprintf(&out, "modelled benchmark metrics (seed and virtual clock)\n")
	for _, bm := range modelledBenchmarks() {
		for _, r := range bm.rows {
			for _, m := range r.run(t) {
				key := bm.name + "/" + r.name + " " + m.unit
				got[key] = m.v
				fmt.Fprintf(&out, "%s %s\n", key, strconv.FormatFloat(m.v, 'f', -1, 64))
			}
		}
	}

	golden := filepath.Join("testdata", "modelled.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, out.Len())
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("modelled metrics diverged from %s (regenerate with UPDATE_GOLDEN=1 if intended):\n got:\n%s\n want:\n%s",
				golden, out.Bytes(), want)
		}
	}

	at := func(key string) float64 {
		t.Helper()
		v, ok := got[key]
		if !ok {
			t.Fatalf("no modelled metric %q", key)
		}
		return v
	}
	for j := 1; j < len(e2GPUs); j++ {
		fast, slow := e2GPUs[j-1], e2GPUs[j]
		if f, s := at("BenchmarkE2GPUSweep/"+string(fast)+" train_s"), at("BenchmarkE2GPUSweep/"+string(slow)+" train_s"); f >= s {
			t.Errorf("E2: %s trains in %vs, not faster than %s's %vs", fast, f, slow, s)
		}
	}
	if q, s := at("BenchmarkE11Federated/quorum/raw/lossy-wan round_ms"), at("BenchmarkE11Federated/sync/raw/lossy-wan round_ms"); q >= s {
		t.Errorf("E11: quorum round_ms %v not below sync %v under lossy-wan", q, s)
	}
	if raw, topk := at("BenchmarkE11Federated/sync/raw/clean bytes_on_wire"), at("BenchmarkE11Federated/sync/topk/clean bytes_on_wire"); raw < 3*topk {
		t.Errorf("E11: top-k bytes %v not >=3x below raw %v", topk, raw)
	}
	if k1, k10 := at("BenchmarkE12FleetScale/hier/w1000 round_ms"), at("BenchmarkE12FleetScale/hier/w10000 round_ms"); k10 >= 10*k1 {
		t.Errorf("E12: hier/w10000 round_ms %v not below 10x hier/w1000's %v", k10, k1)
	}
	if g, s := at("BenchmarkE15Gossip/gossip/cloud-partition partition_survived"), at("BenchmarkE15Gossip/star/cloud-partition partition_survived"); g != 1 || s != 0 {
		t.Errorf("E15: partition_survived gossip %v, star %v; want 1 and 0", g, s)
	}
	if d := at("BenchmarkE14Quantized/int8 quant_maxdelta"); !eval.WithinQuantBudget(d) {
		t.Errorf("E14: int8 drift %v exceeds the %v budget", d, eval.QuantBudget)
	}
}
