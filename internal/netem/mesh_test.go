package netem

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestMeshValidation(t *testing.T) {
	base := WiFiLocal
	if _, err := NewMesh(base, []string{"a"}); err == nil {
		t.Fatal("single-peer mesh accepted")
	}
	if _, err := NewMesh(base, []string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	if _, err := NewMesh(base, []string{"a", ""}); err == nil {
		t.Fatal("empty peer name accepted")
	}
	if _, err := NewMesh(Link{Name: "bad"}, []string{"a", "b"}); err == nil {
		t.Fatal("invalid base profile accepted")
	}

	m, err := NewMesh(base, []string{"w2", "w0", "w1"})
	if err != nil {
		t.Fatal(err)
	}
	// Lookup is order-independent and the name is canonical (sorted pair).
	ab, err := m.Link("w1", "w0")
	if err != nil {
		t.Fatal(err)
	}
	ba, err := m.Link("w0", "w1")
	if err != nil {
		t.Fatal(err)
	}
	if ab.Name != ba.Name || ab.Name != PairLinkName(base.Name, "w1", "w0") {
		t.Fatalf("non-canonical pair names: %q vs %q", ab.Name, ba.Name)
	}
	if ab.Bandwidth != base.Bandwidth || ab.Latency != base.Latency {
		t.Fatalf("pair link did not inherit the base profile: %+v", ab)
	}
	if _, err := m.Link("w0", "w0"); err == nil {
		t.Fatal("self-pair lookup accepted")
	}
	if _, err := m.Link("w0", "ghost"); err == nil {
		t.Fatal("unknown peer lookup accepted")
	}
}

// TestMeshConcurrentTransfers hammers one Net with parallel transfers
// over every pair of a mesh — the shape of a gossip exchange phase — so
// the race detector sees mesh reads and Net RNG/metric writes interleave.
func TestMeshConcurrentTransfers(t *testing.T) {
	peers := make([]string, 8)
	for i := range peers {
		peers[i] = fmt.Sprintf("w%d", i)
	}
	m, err := NewMesh(Loopback, peers)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNet(7)
	reg := obs.NewRegistry()
	n.Instrument(reg)
	var wg sync.WaitGroup
	var pairs [][2]string
	for i := range peers {
		for j := i + 1; j < len(peers); j++ {
			pairs = append(pairs, [2]string{peers[i], peers[j]})
		}
	}
	for _, pair := range pairs {
		pair := pair
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := m.Link(pair[0], pair[1])
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < 20; k++ {
				res, err := n.Transfer(l, 4096)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Duration <= 0 {
					t.Errorf("non-positive duration %v on %s", res.Duration, l.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	bytes, transfers := transferTotals(reg)
	wantTransfers := uint64(len(pairs) * 20)
	if transfers != wantTransfers || bytes != float64(wantTransfers*4096) {
		t.Fatalf("metrics %d transfers / %v bytes, want %d / %d",
			transfers, bytes, wantTransfers, wantTransfers*4096)
	}
}
