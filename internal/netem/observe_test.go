package netem

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// transferTotals sums the registry's transfer bytes and transfer counts
// over every link.
func transferTotals(reg *obs.Registry) (bytes float64, transfers uint64) {
	snap := reg.Snapshot()
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "netem_transfer_bytes_total{") {
			bytes += v
		}
	}
	for k, v := range snap.HistCounts {
		if strings.HasPrefix(k, "netem_transfer_seconds{") {
			transfers += v
		}
	}
	return bytes, transfers
}

func TestNetInstrumentation(t *testing.T) {
	n := NewNet(1)
	reg := obs.NewRegistry()
	n.Instrument(reg)

	if _, err := n.Transfer(CampusWAN, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Transfer(FabricManaged, 1<<22); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RTT(CampusWAN, 200, 400); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[`netem_transfer_bytes_total{link="campus-wan"}`]; got != 1<<20+600 {
		t.Errorf("campus-wan bytes = %v, want %v", got, 1<<20+600)
	}
	if got := snap.Counters[`netem_transfer_bytes_total{link="fabric"}`]; got != 1<<22 {
		t.Errorf("fabric bytes = %v, want %v", got, 1<<22)
	}
	if got := snap.HistCounts[`netem_transfer_seconds{link="campus-wan"}`]; got != 1 {
		t.Errorf("campus-wan transfer observations = %v", got)
	}
	if got := snap.HistCounts[`netem_rpc_seconds{link="campus-wan"}`]; got != 1 {
		t.Errorf("campus-wan rpc observations = %v", got)
	}
	// The simulated duration, not wall clock, is what lands in the
	// histogram: a 1 MiB transfer at 100 Mbit/s takes ~0.1 simulated
	// seconds even though the call returns instantly.
	sum := snap.HistSums[`netem_transfer_seconds{link="campus-wan"}`]
	if sum < 0.05 || sum > 1 {
		t.Errorf("campus-wan simulated transfer sum = %v, want ~0.1", sum)
	}
}

func TestNetUninstrumentedIsNoOp(t *testing.T) {
	n := NewNet(1)
	if _, err := n.Transfer(CampusWAN, 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RTT(CampusWAN, 200, 400); err != nil {
		t.Fatal(err)
	}
}
