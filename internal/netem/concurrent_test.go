package netem

import (
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestConcurrentTransfersOneLink hammers a single link from many
// goroutines at once — the federated coordinator, the serving path, and
// chaos playback all share one Net — and checks under -race that the
// seeded RNG and the transfer metrics stay consistent: every transfer succeeds, every
// byte is accounted, and no duration goes non-positive.
func TestConcurrentTransfersOneLink(t *testing.T) {
	n := NewNet(11)
	reg := obs.NewRegistry()
	n.Instrument(reg)
	const (
		goroutines = 8
		perG       = 50
		size       = int64(32 << 10)
	)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr, err := n.Transfer(CampusWAN, size)
				if err != nil {
					errs[g] = err
					return
				}
				if tr.Bytes != size || tr.Duration <= 0 {
					errs[g] = errTransferShape(tr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	bytes, transfers := transferTotals(reg)
	if want := float64(goroutines * perG * int(size)); bytes != want {
		t.Fatalf("metrics counted %v bytes, want %v", bytes, want)
	}
	if want := uint64(goroutines * perG); transfers != want {
		t.Fatalf("metrics counted %d transfers, want %d", transfers, want)
	}
}

type errTransferShape TransferResult

func (e errTransferShape) Error() string { return "bad transfer result" }

// TestConcurrentTransfersWithFaults repeats the hammer with a fault plan
// and a partitioning, degrading shaper attached, so shape lookups,
// piecewise billing and the partition counter race against the transfer
// path too. Transfers that start inside a partition fail retryably; the
// test demands data-race freedom, byte accounting for successes, and one
// link_partition injection per refusal.
func TestConcurrentTransfersWithFaults(t *testing.T) {
	start := time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)
	plan := faults.NewPlan(13, start)
	// 100ms cycles: 50ms healthy, 20ms partitioned, 30ms degraded 3x.
	sh := &stepShaper{}
	for i := 0; i < 200; i++ {
		at := start.Add(time.Duration(i) * 100 * time.Millisecond)
		sh.add(at.Add(50*time.Millisecond), LinkShape{Down: true})
		sh.add(at.Add(70*time.Millisecond), LinkShape{Factor: 3})
		sh.add(at.Add(100*time.Millisecond), LinkShape{})
	}
	n := NewNet(13)
	reg := obs.NewRegistry()
	n.Instrument(reg)
	n.SetFaults(plan)
	n.SetShaper(sh, plan.Clock.Now)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var okBytes int64
	var okCount, refused int
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tr, err := n.Transfer(CampusWAN, 16<<10)
				mu.Lock()
				if err != nil {
					if !faults.Retryable(err) {
						t.Errorf("partition refusal not retryable: %v", err)
					}
					refused++
				} else {
					okBytes += tr.Bytes
					okCount++
				}
				mu.Unlock()
				wait := 5 * time.Millisecond // a refused sender backs off
				if err == nil {
					wait = tr.Duration
				}
				plan.Clock.Advance(wait)
			}
		}()
	}
	wg.Wait()
	bytes, transfers := transferTotals(reg)
	if bytes != float64(okBytes) || transfers != uint64(okCount) {
		t.Fatalf("metrics (%v bytes, %d transfers) disagree with successes (%d, %d)",
			bytes, transfers, okBytes, okCount)
	}
	if got := plan.Summary().Injected["link_partition"]; got != refused {
		t.Fatalf("link_partition injections = %d, want one per refusal (%d)", got, refused)
	}
}
