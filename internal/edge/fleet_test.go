package edge

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSweepBoundaryExactWindow is the regression test for the heartbeat
// boundary bug: HeartbeatWindow documents how long a device *may* stay
// silent, so a sweep landing exactly HeartbeatWindow after the last
// check-in must evict — but the old comparison (strictly greater) treated
// the device as live and let it linger until the next sweep. This test
// fails on the pre-fix Hub.
func TestSweepBoundaryExactWindow(t *testing.T) {
	h := NewHub()
	ids := connectN(t, h, 2)
	if err := h.Heartbeat(ids[0], t0); err != nil {
		t.Fatal(err)
	}
	if err := h.Heartbeat(ids[1], t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// ids[0] has been silent exactly HeartbeatWindow: out. ids[1] is one
	// second short of its window: still inside its grace.
	dropped := h.SweepHeartbeats(t0.Add(HeartbeatWindow))
	if want := []string{ids[0]}; !reflect.DeepEqual(dropped, want) {
		t.Fatalf("sweep at the exact window dropped %v, want %v", dropped, want)
	}
	if d, _ := h.Device(ids[0]); d.Status != StatusOffline {
		t.Fatalf("device silent for the full window is %s, want offline", d.Status)
	}
	if d, _ := h.Device(ids[1]); d.Status != StatusConnected {
		t.Fatalf("device silent for window-1s is %s, want connected", d.Status)
	}
}

// TestSweepFirstObservationGrace pins the documented first-sweep grace: a
// connected device that has never heartbeated is stamped at its first
// sweep and only becomes evictable one full window after that observation.
func TestSweepFirstObservationGrace(t *testing.T) {
	h := NewHub()
	ids := connectN(t, h, 1)
	first := t0.Add(10 * time.Second)
	if dropped := h.SweepHeartbeats(first); len(dropped) != 0 {
		t.Fatalf("first sweep evicted %v, want grace", dropped)
	}
	if dropped := h.SweepHeartbeats(first.Add(HeartbeatWindow - time.Second)); len(dropped) != 0 {
		t.Fatalf("sweep inside the grace window evicted %v", dropped)
	}
	dropped := h.SweepHeartbeats(first.Add(HeartbeatWindow))
	if want := []string{ids[0]}; !reflect.DeepEqual(dropped, want) {
		t.Fatalf("sweep at the end of the grace window dropped %v, want %v", dropped, want)
	}
}

// TestFleetConcurrentShardHammer drives registration, heartbeats, sweeps,
// launches, and snapshots from many goroutines at once — the -race proof
// that the sharded registries synchronize correctly without the old global
// mutex.
func TestFleetConcurrentShardHammer(t *testing.T) {
	h := NewHub()
	h.Instrument(obs.NewRegistry())
	const (
		writers = 8
		perG    = 40
	)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	ids := make([][]string, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d, err := h.RegisterDevice(fmt.Sprintf("car-%d-%d", g, i), "hammer")
				if err != nil {
					errs[g] = err
					return
				}
				ids[g] = append(ids[g], d.ID)
				if _, err := h.FlashImage(d.ID); err != nil {
					errs[g] = err
					return
				}
				if _, err := h.Boot(d.ID); err != nil {
					errs[g] = err
					return
				}
				if err := h.Heartbeat(d.ID, t0.Add(time.Duration(i)*time.Second)); err != nil {
					errs[g] = err
					return
				}
				if err := h.Whitelist(d.ID, "edu"); err != nil {
					errs[g] = err
					return
				}
				if _, err := h.LaunchContainer(d.ID, "edu", "img", 1<<20, t0); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	// Concurrent sweeps and snapshots race the writers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				h.SweepHeartbeats(t0.Add(time.Duration(g*20+i) * time.Second))
				_, _ = h.Device(fmt.Sprintf("dev-%04d", g*20+i+1))
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	seen := map[string]bool{}
	for _, gids := range ids {
		for _, id := range gids {
			if _, err := h.Device(id); err != nil || seen[id] {
				t.Fatalf("device %q: %v (duplicate %v)", id, err, seen[id])
			}
			seen[id] = true
		}
	}
	if len(seen) != writers*perG {
		t.Fatalf("registered %d devices, want %d", len(seen), writers*perG)
	}
}

// TestFleetEvictionOrderDeterministic1k: two identically-driven 1k-device
// fleets must evict in the identical (sorted) order — no shard-layout or
// map-iteration leak at fleet scale.
func TestFleetEvictionOrderDeterministic1k(t *testing.T) {
	run := func() []string {
		h := NewHub()
		ids := connectN(t, h, 1000)
		for i, id := range ids {
			// Half the fleet keeps heartbeating right up to the sweep; the
			// other half goes silent after one check-in.
			beat := t0
			if i%2 == 0 {
				beat = t0.Add(HeartbeatWindow)
			}
			if err := h.Heartbeat(id, beat); err != nil {
				t.Fatal(err)
			}
		}
		return h.SweepHeartbeats(t0.Add(HeartbeatWindow + time.Second))
	}
	first := run()
	second := run()
	if len(first) != 500 {
		t.Fatalf("evicted %d devices, want 500", len(first))
	}
	if !sort.StringsAreSorted(first) {
		t.Fatal("eviction order not sorted")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two identical 1k-device runs evicted in different orders")
	}
}

// TestFleetMetricsCardinality10k: a 10k-device fleet must keep every
// metric label's value set bounded (per-shard labels, never per-device) —
// the in-process version of the verify.sh cardinality lint.
func TestFleetMetricsCardinality10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-device fleet in -short mode")
	}
	h := NewHub()
	reg := obs.NewRegistry()
	h.Instrument(reg)
	ids := connectN(t, h, 10000)
	for i, id := range ids {
		if i%3 == 0 {
			continue // a third of the fleet goes silent
		}
		if err := h.Heartbeat(id, t0); err != nil {
			t.Fatal(err)
		}
	}
	h.SweepHeartbeats(t0.Add(time.Second))                   // stamps the silent third
	h.SweepHeartbeats(t0.Add(HeartbeatWindow + time.Second)) // evicts it
	snap := reg.Snapshot()
	for series, n := range snap.LabelCardinality() {
		if n >= obs.MaxLabelCardinality {
			t.Errorf("label %s has %d distinct values (limit %d)", series, n, obs.MaxLabelCardinality)
		}
	}
	card := snap.LabelCardinality()
	if got := card["edge_shard_devices/shard"]; got != numShards {
		t.Fatalf("edge_shard_devices/shard cardinality = %d, want %d", got, numShards)
	}
	// The shards should actually spread the fleet: no stripe empty.
	total := int64(0)
	for i := range h.perReg {
		n := h.perReg[i].Load()
		if n == 0 {
			t.Errorf("shard %d is empty across a 10k fleet", i)
		}
		total += n
	}
	if total != 10000 {
		t.Fatalf("per-shard counts sum to %d, want 10000", total)
	}
}
