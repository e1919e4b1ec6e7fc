package serve

import (
	"context"
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/pilot"
)

// Errors surfaced by the admission and scheduling layer.
var (
	// ErrQueueFull is returned when the bounded admission queue sheds a
	// request; the HTTP layer maps it to 429 + Retry-After.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShuttingDown is returned to requests still queued when the
	// service closes.
	ErrShuttingDown = errors.New("serve: shutting down")
)

// request is one queued prediction with its deadline context and reply
// channel (buffered so a timed-out client never blocks the scheduler).
type request struct {
	sample   pilot.Sample
	ctx      context.Context
	sc       obs.SpanContext // propagated trace, {} when the caller has none
	enqueued time.Time
	resp     chan response
}

type response struct {
	angle, throttle float64
	batch           int
	err             error
}

// batcher is one shard of a model's micro-batching scheduler: a bounded
// admission queue feeding a single goroutine that collects requests into
// mini-batches and flushes on MaxBatch, on the BatchWindow deadline or,
// with no window, as soon as the queue is empty. One goroutine per shard
// also serializes forward passes on that shard's pilot replica, which
// the nn layers require (Forward mutates layer state).
type batcher struct {
	model string
	shard int
	reg   *Registry
	cfg   Config
	slow  func() time.Duration

	queue chan *request
	done  chan struct{}
	wg    sync.WaitGroup

	// closeMu closes the submit/stop race: submit holds the read side
	// across its closed-check and enqueue, so stop's write-side flip of
	// closed strictly orders every in-flight submit before the final
	// drain. Without it a request could pass the check, lose the CPU,
	// and be enqueued after drain emptied the queue — blocking its
	// caller forever.
	closeMu sync.RWMutex
	closed  bool

	// Per-model series, shared by every shard of the model (counters and
	// histograms are atomic; the depth gauge is kept as a cross-shard
	// total via deltas).
	depth     *obs.Gauge
	batchSize *obs.Histogram
	latency   *obs.Histogram
	requests  *obs.Counter
	batches   *obs.Counter
	shed      *obs.Counter
	expired   *obs.Counter

	// Per-shard stripes: each shard owns its series, so hot-path updates
	// from N schedulers never contend on one cache line.
	shardDepth    *obs.Gauge
	shardRequests *obs.Counter
	shardBatches  *obs.Counter
}

// batchSizeBuckets bound the serve_batch_size histogram.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

func newBatcher(model string, shard int, reg *Registry, cfg Config, metrics *obs.Registry, slow func() time.Duration) *batcher {
	lbl := obs.L("model", model)
	slbl := obs.L("shard", strconv.Itoa(shard))
	depth := cfg.QueueDepth / cfg.replicas()
	if depth < 1 {
		depth = 1
	}
	b := &batcher{
		model: model,
		shard: shard,
		reg:   reg,
		cfg:   cfg,
		slow:  slow,
		queue: make(chan *request, depth),
		done:  make(chan struct{}),

		depth:     metrics.Gauge("serve_queue_depth", lbl),
		batchSize: metrics.Histogram("serve_batch_size", batchSizeBuckets, lbl),
		latency:   metrics.Histogram("serve_request_seconds", obs.DefSecondsBuckets, lbl),
		requests:  metrics.Counter("serve_requests_total", lbl),
		batches:   metrics.Counter("serve_batches_total", lbl),
		shed:      metrics.Counter("serve_shed_total", lbl),
		expired:   metrics.Counter("serve_expired_total", lbl),

		shardDepth:    metrics.Gauge("serve_replica_queue_depth", lbl, slbl),
		shardRequests: metrics.Counter("serve_replica_requests_total", lbl, slbl),
		shardBatches:  metrics.Counter("serve_replica_batches_total", lbl, slbl),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// submit enqueues a request without blocking; a full queue sheds. The
// read lock spans the closed-check and the enqueue (see closeMu).
func (b *batcher) submit(r *request) error {
	b.requests.Inc()
	b.shardRequests.Inc()
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return ErrShuttingDown
	}
	select {
	case b.queue <- r:
		b.depth.Add(1)
		b.shardDepth.Set(float64(len(b.queue)))
		return nil
	default:
		b.shed.Inc()
		// The queue is at capacity; say so. Before this Set a shed left
		// the gauge wherever the last successful enqueue put it, so a
		// saturated shard could report a half-empty queue.
		b.shardDepth.Set(float64(len(b.queue)))
		return ErrQueueFull
	}
}

// stop shuts the scheduler down and waits for it to drain: queued requests
// are answered with ErrShuttingDown, the in-flight batch completes. The
// write lock waits out every in-flight submit before the done channel
// closes, and the post-wait drain sweeps anything a submit enqueued in
// the same instant the scheduler exited.
func (b *batcher) stop() {
	b.closeMu.Lock()
	b.closed = true
	b.closeMu.Unlock()
	close(b.done)
	b.wg.Wait()
	b.drain()
}

// take records a request leaving the queue, keeping the per-model depth
// gauge an exact cross-shard total.
func (b *batcher) take() { b.depth.Add(-1) }

// run is the scheduler loop.
func (b *batcher) run() {
	defer b.wg.Done()
	for {
		select {
		case <-b.done:
			b.drain()
			return
		case first := <-b.queue:
			b.take()
			batch := b.collect(first)
			b.exec(batch)
		}
	}
}

// collect gathers up to MaxBatch requests, waiting at most BatchWindow
// after the first arrival. A zero window flushes whatever is already
// queued without waiting.
func (b *batcher) collect(first *request) []*request {
	batch := []*request{first}
	if b.cfg.BatchWindow <= 0 {
		for len(batch) < b.cfg.MaxBatch {
			select {
			case r := <-b.queue:
				b.take()
				batch = append(batch, r)
			default:
				b.shardDepth.Set(float64(len(b.queue)))
				return batch
			}
		}
		b.shardDepth.Set(float64(len(b.queue)))
		return batch
	}
	timer := time.NewTimer(b.cfg.BatchWindow)
	defer timer.Stop()
	for len(batch) < b.cfg.MaxBatch {
		select {
		case r := <-b.queue:
			b.take()
			batch = append(batch, r)
		case <-timer.C:
			b.shardDepth.Set(float64(len(b.queue)))
			return batch
		case <-b.done:
			b.shardDepth.Set(float64(len(b.queue)))
			return batch
		}
	}
	b.shardDepth.Set(float64(len(b.queue)))
	return batch
}

// exec runs one mini-batch: expired requests are dropped, injected
// slowness is applied, and the batched forward pass answers the rest.
func (b *batcher) exec(batch []*request) {
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		select {
		case <-r.ctx.Done():
			b.expired.Inc()
			// Observe before replying: once the caller unblocks it may
			// read the snapshot, and an expired wait is still latency the
			// client paid.
			b.latency.ObserveExemplar(now.Sub(r.enqueued).Seconds(), r.sc.TraceID)
			r.resp <- response{err: r.ctx.Err()}
		default:
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	if b.slow != nil {
		if d := b.slow(); d > 0 {
			time.Sleep(d)
		}
	}
	p, ok := b.reg.PilotShard(b.model, b.shard)
	if !ok {
		err := errors.New("serve: model unregistered mid-flight")
		for _, r := range live {
			r.resp <- response{err: err}
		}
		return
	}
	samples := make([]pilot.Sample, len(live))
	for i, r := range live {
		samples[i] = r.sample
	}
	out, err := p.InferBatch(samples)
	now = time.Now()
	b.batches.Inc()
	b.shardBatches.Inc()
	b.batchSize.Observe(float64(len(live)))
	for i, r := range live {
		b.latency.ObserveExemplar(now.Sub(r.enqueued).Seconds(), r.sc.TraceID)
		if err != nil {
			r.resp <- response{err: err}
			continue
		}
		r.resp <- response{angle: out[i][0], throttle: out[i][1], batch: len(live)}
	}
}

// drain answers everything still queued after shutdown began.
func (b *batcher) drain() {
	for {
		select {
		case r := <-b.queue:
			b.take()
			r.resp <- response{err: ErrShuttingDown}
		default:
			b.shardDepth.Set(0)
			return
		}
	}
}

// shardSet routes one model's requests across its batcher shards: the
// admission layer picks the least-loaded shard starting from a rotating
// offset, so equal loads spread round-robin and a stalled shard stops
// receiving work as soon as any sibling is shorter.
type shardSet struct {
	shards []*batcher
	rr     atomic.Uint32
}

func newShardSet(model string, reg *Registry, cfg Config, metrics *obs.Registry, slow func() time.Duration) *shardSet {
	n := cfg.replicas()
	ss := &shardSet{shards: make([]*batcher, n)}
	for i := 0; i < n; i++ {
		ss.shards[i] = newBatcher(model, i, reg, cfg, metrics, slow)
	}
	return ss
}

// submit picks a shard and enqueues. Because the pick is the minimum
// queue length, a shed here means every shard was full.
func (ss *shardSet) submit(r *request) error {
	if len(ss.shards) == 1 {
		return ss.shards[0].submit(r)
	}
	start := int(ss.rr.Add(1))
	best := ss.shards[start%len(ss.shards)]
	load := len(best.queue)
	for i := 1; i < len(ss.shards) && load > 0; i++ {
		s := ss.shards[(start+i)%len(ss.shards)]
		if l := len(s.queue); l < load {
			best, load = s, l
		}
	}
	return best.submit(r)
}

func (ss *shardSet) setSlow(fn func() time.Duration) {
	for _, b := range ss.shards {
		b.slow = fn
	}
}

func (ss *shardSet) stop() {
	for _, b := range ss.shards {
		b.stop()
	}
}

// ShaperSlowdown adapts a live link shaper (the scenario table netctl
// mutates) into a per-batch slowdown hook for Service.SetSlowHook: a
// partitioned link stalls like an outage, and a shaped or degraded one
// stalls in proportion to the bandwidth it lost plus twice the added
// one-way delay; a shape whose slowdown cannot be modelled (a delay or a
// stall past time.Duration's range) stalls like an outage too. Because
// the shaper is consulted on every batch, a netctl mutation slows the
// very next forward pass.
func ShaperSlowdown(sh netem.Shaper, base netem.Link, now func() time.Time, unit time.Duration) func() time.Duration {
	const outageFactor = 10
	return func() time.Duration {
		shape, _ := sh.ShapeAt(base.Name, now())
		eff, err := shape.Apply(base)
		if shape.Down || err != nil {
			return outageFactor * unit
		}
		var d time.Duration
		if eff.Bandwidth > 0 && eff.Bandwidth < base.Bandwidth {
			ns := float64(unit) * (base.Bandwidth/eff.Bandwidth - 1)
			if !(ns < 1<<63) {
				return outageFactor * unit
			}
			d = time.Duration(ns)
		}
		if extra := eff.Latency - base.Latency; extra > 0 {
			if extra > (math.MaxInt64-d)/2 {
				return outageFactor * unit
			}
			d += 2 * extra
		}
		return d
	}
}
