package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/nn"
	"repro/internal/pilot"
	"repro/internal/sim"
)

func testSample(t testing.TB, seed int64) pilot.Sample {
	t.Helper()
	return pilot.Sample{Frames: []*sim.Frame{testFrame(t, seed)}}
}

// TestSubmitStopRace is the regression test for the submit/stop shutdown
// race: a request could pass submit's shutting-down check, lose the CPU,
// and be enqueued after stop's drain had already emptied the queue —
// leaving its caller blocked on the response channel forever. The fix
// (submit holds the closeMu read side across check+enqueue, stop flips
// closed before closing done and drains once more after the scheduler
// exits) guarantees every successfully submitted request is answered.
//
// The losing window is a few instructions wide, so hitting it needs help:
// 64 submitters on 8 Ps keep dozens of goroutines descheduled at arbitrary
// points whenever stop fires, and the race detector's per-access
// instrumentation stretches the window enough to make the loss frequent.
// Run under -race, the pre-fix scheduler strands a request roughly once
// per hundred iterations, so 600 iterations catch a reintroduction with
// near certainty; without -race the test still verifies the
// every-accept-is-answered invariant as a plain stress test.
func TestSubmitStopRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	env := newTestEnv(t, DefaultConfig())
	cfg := Config{
		MaxBatch: 4, BatchWindow: 0, QueueDepth: 8,
		DefaultDeadline: time.Second, PollInterval: 0,
	}
	sample := testSample(t, 1)

	const iters = 600
	const submitters = 64
	for it := 0; it < iters; it++ {
		// An unregistered name makes exec answer instantly (registry miss)
		// instead of running inference; the race under test lives entirely
		// in submit/stop, and a fast scheduler loop cycles the queue more.
		b := newBatcher("ghost", 0, env.reg, cfg, env.metrics, nil)
		var wg sync.WaitGroup
		accepted := make(chan *request, 1<<16)
		start := make(chan struct{})
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Spin until shutdown is observed, so some submit is
				// mid-flight whenever stop runs.
				for {
					r := &request{
						sample: sample, ctx: context.Background(),
						enqueued: time.Now(), resp: make(chan response, 1),
					}
					err := b.submit(r)
					if err == nil {
						accepted <- r
					}
					if err == ErrShuttingDown {
						return
					}
				}
			}()
		}
		close(start)
		// Let the storm spin up so stop lands while submits are genuinely
		// mid-flight: this is the window the old code lost requests in.
		time.Sleep(500 * time.Microsecond)
		b.stop()
		wg.Wait()

		// Everything has settled: stop returned and every submitter exited,
		// so a request still sitting in the queue was accepted after the
		// final drain — its caller would block forever.
		if n := len(b.queue); n != 0 {
			t.Fatalf("iteration %d: %d accepted request(s) stranded in the dead queue", it, n)
		}
		close(accepted)
		for r := range accepted {
			select {
			case <-r.resp:
				// Answered: executed before shutdown or drained with
				// ErrShuttingDown; either is a correct, terminal reply.
			default:
				t.Fatalf("iteration %d: accepted request never answered (lost in shutdown race)", it)
			}
		}
	}
}

// TestExpiredRequestsObserveLatency pins the latency-accounting fix: a
// request that expires in the queue still spent its whole deadline
// waiting, so it must appear in serve_request_seconds. Before the fix
// the scheduler replied to expired requests without observing them, so
// an overloaded server's latency histogram silently excluded exactly the
// requests that waited longest.
func TestExpiredRequestsObserveLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 1
	cfg.BatchWindow = 0
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	env.svc.SetSlowHook(func() time.Duration { return 80 * time.Millisecond })

	histKey := fmt.Sprintf("serve_request_seconds{model=%q}", testModel)
	before := env.metrics.Snapshot().HistCounts[histKey]

	// First request occupies the scheduler; the second expires queued
	// behind it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		env.svc.Predict(context.Background(), testModel, testSample(t, 1))
	}()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := env.svc.Predict(ctx, testModel, testSample(t, 2)); err != context.DeadlineExceeded {
		t.Fatalf("queued request returned %v, want context.DeadlineExceeded", err)
	}
	wg.Wait()

	deadline := time.Now().Add(2 * time.Second)
	expKey := fmt.Sprintf("serve_expired_total{model=%q}", testModel)
	for {
		snap := env.metrics.Snapshot()
		if snap.Counters[expKey] >= 1 && snap.HistCounts[histKey] >= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired request missing from serve_request_seconds: count %d (was %d), expired %v",
				snap.HistCounts[histKey], before, snap.Counters[expKey])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShedUpdatesQueueDepth pins the gauge-accounting fix: the depth
// gauges must reflect the saturated queue at the moment of a shed, and
// the per-model gauge stays an exact total across shards (delta-based,
// not last-writer-wins).
func TestShedUpdatesQueueDepth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 1
	cfg.BatchWindow = 0
	cfg.QueueDepth = 2
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	env.svc.SetSlowHook(func() time.Duration { return 150 * time.Millisecond })

	// Occupy the scheduler, then fill the depth-2 queue and shed.
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			_, err := env.svc.Predict(context.Background(), testModel, testSample(t, int64(i)))
			results <- err
		}(i)
		time.Sleep(20 * time.Millisecond)
	}
	// The 4th submit found a full queue (1 executing + 2 queued).
	depthKey := fmt.Sprintf("serve_queue_depth{model=%q}", testModel)
	shardKey := fmt.Sprintf("serve_replica_queue_depth{model=%q,shard=\"0\"}", testModel)
	snap := env.metrics.Snapshot()
	if got := snap.Gauges[depthKey]; got != 2 {
		t.Errorf("serve_queue_depth during saturation = %v, want 2", got)
	}
	if got := snap.Gauges[shardKey]; got != 2 {
		t.Errorf("serve_replica_queue_depth during saturation = %v, want 2", got)
	}
	shed := 0
	for i := 0; i < 4; i++ {
		if err := <-results; err == ErrQueueFull {
			shed++
		} else if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if shed != 1 {
		t.Fatalf("%d requests shed, want 1", shed)
	}
	// Once everything drains both gauges return to zero.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap = env.metrics.Snapshot()
		if snap.Gauges[depthKey] == 0 && snap.Gauges[shardKey] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth gauges never drained: total=%v shard=%v",
				snap.Gauges[depthKey], snap.Gauges[shardKey])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicasScaleOut runs a replicated service end to end: distinct
// shards must serve from distinct pilot instances, work must spread
// across shards, per-shard metric stripes must populate, and every
// answer must equal the unsharded model's.
func TestReplicasScaleOut(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 4
	cfg.MaxBatch = 4
	cfg.QueueDepth = 64
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)

	// The registry decoded one instance per shard.
	seen := map[*pilot.Pilot]bool{}
	for s := 0; s < 4; s++ {
		p, ok := env.reg.PilotShard(testModel, s)
		if !ok {
			t.Fatalf("shard %d has no pilot", s)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 shards share %d pilot instances, want 4 distinct", len(seen))
	}
	info, _ := env.reg.Info(testModel)
	if info.Replicas != 4 {
		t.Fatalf("ModelInfo.Replicas = %d, want 4", info.Replicas)
	}

	// Ground truth from a standalone float pilot (same checkpoint).
	ref, ok := env.reg.Pilot(testModel)
	if !ok {
		t.Fatal("no pilot")
	}
	const n = 64
	samples := make([]pilot.Sample, n)
	want := make([][2]float64, n)
	for i := range samples {
		samples[i] = testSample(t, int64(i))
		out, err := ref.InferBatch(samples[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out[0]
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	got := make([]Prediction, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = env.svc.Predict(context.Background(), testModel, samples[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if math.Abs(got[i].Angle-want[i][0]) > 1e-9 || math.Abs(got[i].Throttle-want[i][1]) > 1e-9 {
			t.Errorf("request %d: sharded (%g, %g) != reference (%g, %g)",
				i, got[i].Angle, got[i].Throttle, want[i][0], want[i][1])
		}
	}

	snap := env.metrics.Snapshot()
	shardsUsed := 0
	var striped float64
	for s := 0; s < 4; s++ {
		k := fmt.Sprintf("serve_replica_requests_total{model=%q,shard=\"%d\"}", testModel, s)
		if v := snap.Counters[k]; v > 0 {
			shardsUsed++
			striped += v
		}
	}
	if shardsUsed < 2 {
		t.Errorf("only %d shards received work; the router is not spreading load", shardsUsed)
	}
	total := snap.Counters[fmt.Sprintf("serve_requests_total{model=%q}", testModel)]
	if striped != total || total != n {
		t.Errorf("striped counters sum to %v, per-model total %v, want %d", striped, total, n)
	}
}

// TestQuantizedServing flips the registry to int8 and checks the service
// keeps answering within the quantization drift budget of the float
// model, with the mode surfaced in /models metadata.
func TestQuantizedServing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Replicas = 2
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)

	ref, _ := env.reg.Pilot(testModel)
	sample := testSample(t, 3)
	out, err := ref.InferBatch([]pilot.Sample{sample})
	if err != nil {
		t.Fatal(err)
	}
	want := out[0]

	if err := env.reg.SetQuant(nn.QuantInt8); err != nil {
		t.Fatal(err)
	}
	info, _ := env.reg.Info(testModel)
	if info.Quant != nn.QuantInt8 {
		t.Fatalf("ModelInfo.Quant = %q, want %q", info.Quant, nn.QuantInt8)
	}
	pred, err := env.svc.Predict(context.Background(), testModel, sample)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := eval.QuantDrift([][2]float64{want}, [][2]float64{{pred.Angle, pred.Throttle}})
	if err != nil {
		t.Fatal(err)
	}
	if !eval.WithinQuantBudget(drift) {
		t.Errorf("quantized serving drift %g exceeds the %g budget (got (%g, %g), float (%g, %g))",
			drift, eval.QuantBudget, pred.Angle, pred.Throttle, want[0], want[1])
	}

	if err := env.reg.SetQuant("int4"); err == nil {
		t.Error("unsupported quantization mode accepted")
	}
}

// TestSetReplicasValidation pins the registry-side bounds and the no-op
// fast path.
func TestSetReplicasValidation(t *testing.T) {
	env := newTestEnv(t, DefaultConfig())
	if err := env.reg.SetReplicas(0); err == nil {
		t.Error("SetReplicas(0) accepted")
	}
	if err := env.reg.SetReplicas(MaxReplicas + 1); err == nil {
		t.Errorf("SetReplicas(%d) accepted", MaxReplicas+1)
	}
	if err := env.reg.SetReplicas(3); err != nil {
		t.Fatal(err)
	}
	if info, _ := env.reg.Info(testModel); info.Replicas != 3 {
		t.Fatalf("Replicas = %d after SetReplicas(3)", info.Replicas)
	}
	cfg := DefaultConfig()
	cfg.Replicas = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Replicas validated")
	}
	cfg.Replicas = MaxReplicas + 1
	if err := cfg.Validate(); err == nil {
		t.Error("oversized Replicas validated")
	}
}
