package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// forceParallel is an op estimate comfortably above parallelThreshold so
// coverage tests exercise the multi-goroutine chunking path.
const forceParallel = parallelThreshold * 4

// TestParallelForCoverage verifies the chunking math touches every index
// exactly once for the awkward splits: worker counts that don't divide
// n, worker counts larger than n, and the single-element and empty
// ranges. A duplicated or dropped index here silently corrupts GEMM
// rows, so this is the regression net under the kernels.
func TestParallelForCoverage(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	cases := []struct{ n, workers int }{
		{0, 4},   // empty range: work must never be called
		{1, 4},   // workers > n collapses to one chunk
		{3, 8},   // workers > n, n > 1
		{7, 3},   // non-divisible split
		{64, 3},  // non-divisible, chunk remainder at the tail
		{65, 64}, // one-element chunks plus remainder
		{100, 7},
		{1000, 16},
	}
	for _, tc := range cases {
		SetMaxWorkers(tc.workers)
		hits := make([]int32, tc.n)
		called := int32(0)
		parallelFor(tc.n, forceParallel, func(i0, i1 int) {
			atomic.AddInt32(&called, 1)
			if i0 < 0 || i1 > tc.n || i0 >= i1 {
				t.Errorf("n=%d workers=%d: bad chunk [%d,%d)", tc.n, tc.workers, i0, i1)
				return
			}
			for i := i0; i < i1; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		if tc.n == 0 && called != 0 {
			t.Errorf("n=0: work called %d times, want 0", called)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, h)
			}
		}
	}
}

// TestParallelForTilesCoverage verifies the 2-D tile scheduler calls
// work exactly once per (ti, tj) pair — including when the worker count
// exceeds the tile count — and never for an empty grid.
func TestParallelForTilesCoverage(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	cases := []struct{ mt, nt, workers int }{
		{0, 5, 4}, // empty grid
		{5, 0, 4},
		{1, 1, 8}, // workers >> tiles
		{3, 4, 5}, // non-divisible deal
		{7, 7, 16},
		{2, 9, 3},
	}
	for _, tc := range cases {
		SetMaxWorkers(tc.workers)
		var mu sync.Mutex
		seen := map[[2]int]int{}
		parallelForTiles(tc.mt, tc.nt, forceParallel, func(ti, tj int) {
			mu.Lock()
			seen[[2]int{ti, tj}]++
			mu.Unlock()
		})
		if len(seen) != tc.mt*tc.nt {
			t.Fatalf("%dx%d tiles workers=%d: %d distinct tiles visited, want %d",
				tc.mt, tc.nt, tc.workers, len(seen), tc.mt*tc.nt)
		}
		for tile, count := range seen {
			if count != 1 {
				t.Fatalf("%dx%d tiles: tile %v visited %d times", tc.mt, tc.nt, tile, count)
			}
			if tile[0] >= tc.mt || tile[1] >= tc.nt {
				t.Fatalf("%dx%d tiles: out-of-grid tile %v", tc.mt, tc.nt, tile)
			}
		}
	}
}

// TestParallelForSmallProblemNoAlloc pins the below-threshold fast path:
// small kernels must run inline on the calling goroutine with zero
// allocations — the regression that motivated the scratch arena was
// exactly this path allocating per call.
func TestParallelForSmallProblemNoAlloc(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(8))
	sink := 0
	work := func(i0, i1 int) { sink += i1 - i0 }
	allocs := testing.AllocsPerRun(100, func() {
		parallelFor(16, 256 /* below parallelThreshold */, work)
	})
	if allocs != 0 {
		t.Fatalf("below-threshold parallelFor allocates %.1f per call, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("work never ran")
	}
}

// TestParallelForFollowsGOMAXPROCS: with no SetMaxWorkers override a
// kernel splits into as many chunks as GOMAXPROCS allows, so a
// GOMAXPROCS=1 run (or go test -cpu 1) keeps every kernel on the calling
// goroutine.
func TestParallelForFollowsGOMAXPROCS(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		var chunks atomic.Int32
		parallelFor(64, forceParallel, func(i0, i1 int) { chunks.Add(1) })
		if got := int(chunks.Load()); got != procs {
			t.Errorf("GOMAXPROCS %d: work split into %d chunks, want %d", procs, got, procs)
		}
	}
}

// TestSetMaxWorkersConcurrent drives kernels while another goroutine
// churns the worker count. Before maxWorkers became atomic this was a
// data race (caught by -race in scripts/verify.sh); it must also never
// produce a torn read that breaks chunk coverage.
func TestSetMaxWorkersConcurrent(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			SetMaxWorkers(w%8 + 1)
			w++
		}
	}()
	const n = 512
	for iter := 0; iter < 200; iter++ {
		hits := make([]int32, n)
		parallelFor(n, forceParallel, func(i0, i1 int) {
			for i := i0; i < i1; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("iter %d: index %d visited %d times under worker churn", iter, i, h)
			}
		}
	}
	close(stop)
	wg.Wait()
}
