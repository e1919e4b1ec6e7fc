package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the approximate number of scalar operations below
// which a kernel runs single-threaded; goroutine fan-out costs more than it
// saves on tiny problems.
const parallelThreshold = 1 << 16

// maxWorkers caps kernel parallelism. Tests may lower it; 0 means
// runtime.GOMAXPROCS(0). Atomic because concurrent training runs (e.g.
// the metrics-instrumented race tests) may read it while a test adjusts
// it.
var maxWorkers atomic.Int64

// SetMaxWorkers overrides the kernel worker count. 0 restores the
// default, GOMAXPROCS at the time of each call, so a GOMAXPROCS=1 run
// or `go test -cpu 1` runs every kernel on one goroutine. It returns the
// previous setting so callers can restore it. Results are bitwise the
// same for every worker count.
func SetMaxWorkers(n int) int {
	return int(maxWorkers.Swap(int64(n)))
}

// parallelFor splits the index range [0, n) into contiguous chunks and runs
// work on each concurrently when the total op estimate justifies it.
func parallelFor(n, opEstimate int, work func(i0, i1 int)) {
	if n <= 0 {
		return
	}
	workers := 1
	if opEstimate >= parallelThreshold {
		if workers = int(maxWorkers.Load()); workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, n)
	}
	if workers <= 1 {
		work(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		i0 := w * chunk
		if i0 >= n {
			break
		}
		i1 := i0 + chunk
		if i1 > n {
			i1 = n
		}
		wg.Add(1)
		go func(a, b int) {
			defer wg.Done()
			work(a, b)
		}(i0, i1)
	}
	wg.Wait()
}

// parallelForTiles schedules a 2-D tile grid (mTiles × nTiles) across
// workers: work(ti, tj) is called exactly once per tile, tiles are dealt
// to workers in contiguous runs of the row-major tile index, and a worker
// count larger than the tile count degrades to one tile per worker. Each
// output tile is owned by exactly one goroutine, so tiled kernels stay
// bitwise deterministic for any worker count.
func parallelForTiles(mTiles, nTiles, opEstimate int, work func(ti, tj int)) {
	total := mTiles * nTiles
	if total <= 0 {
		return
	}
	parallelFor(total, opEstimate, func(t0, t1 int) {
		for t := t0; t < t1; t++ {
			work(t/nTiles, t%nTiles)
		}
	})
}
