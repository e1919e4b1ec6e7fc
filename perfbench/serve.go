package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The serve workload is `autolearn serve` at its defaults: nproc
// closed-loop clients post real camera frames to /predict in process,
// and one client hot-swaps between two checkpoints once per the server's
// registry poll interval, the fastest a served model picks up a new
// checkpoint.
const (
	serveTicks     = 300 // drive that supplies the frames and checkpoints
	serveSetups    = 40
	serveWarmup    = 100 // untimed requests per client
	serveModel     = "student"
	serveObject    = "student.ckpt"
	serveContainer = "autolearn-models"
)

type serveBench struct {
	ckpt    [2][]byte       // the two checkpoint versions
	bodies  [][]byte        // one /predict body per frame
	want    [2][][2]float64 // Pilot.Infer per frame, under each version
	samples []pilot.Sample
	// replies counts the traced window's replies by batch size, and
	// queued sums their queue time, for the probe.
	replies map[int]int
	queued  map[int]time.Duration
}

// predictBody mirrors serve's POST /predict wire format.
type predictBody struct {
	Model    string   `json:"model"`
	Width    int      `json:"width"`
	Height   int      `json:"height"`
	Channels int      `json:"channels"`
	Frames   []string `json:"frames"`
}

type predictReply struct {
	Angle     float64 `json:"angle"`
	Throttle  float64 `json:"throttle"`
	BatchSize int     `json:"batch_size"`
	QueuedUS  int64   `json:"queued_us"`
}

// newServeBench drives the oval, trains the inferred pilot one epoch on
// the drive (version 1) and one more (version 2), and encodes every frame
// as a request body with its expected reply under each version.
func newServeBench(seed int64, _ string) (bench, error) {
	cam := sim.SmallCameraConfig()
	recs, err := humanDrive(cam, seed, serveTicks)
	if err != nil {
		return nil, err
	}
	pcfg := pilot.DefaultConfig(pilot.Inferred, cam.Width, cam.Height, cam.Channels)
	pcfg.Seed = seed
	samples, err := pilot.SamplesFromRecords(pcfg, recs)
	if err != nil {
		return nil, err
	}
	pl, err := pilot.New(pcfg)
	if err != nil {
		return nil, err
	}
	b := &serveBench{samples: samples}
	for v := range b.ckpt {
		if _, err := pl.Train(samples, nn.TrainConfig{Epochs: 1, BatchSize: 32, ValFrac: 0.15, Seed: seed + int64(v), ClipGrad: 5}); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := pl.Save(&buf); err != nil {
			return nil, err
		}
		b.ckpt[v] = buf.Bytes()
		loaded, err := pilot.Load(bytes.NewReader(b.ckpt[v]))
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			a, t, err := loaded.Infer(s)
			if err != nil {
				return nil, err
			}
			b.want[v] = append(b.want[v], [2]float64{a, t})
		}
	}
	for _, r := range recs {
		body, err := json.Marshal(predictBody{serveModel, cam.Width, cam.Height, cam.Channels,
			[]string{serve.EncodeFrame(r.Frame)}})
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, body)
	}
	return b, nil
}

// post sends one /predict request in process.
func post(svc *serve.Service, body []byte) (int, []byte) {
	req, _ := http.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

// construct is the serve set-up: store Put, Register, serve.New and the
// first reply. It returns the time to the first reply and, separately,
// the time through serve.New.
func (b *serveBench) construct(reg *obs.Registry) (*serve.Service, *serve.Registry, *objstore.Store, [2]time.Duration, error) {
	var d [2]time.Duration
	t0 := time.Now()
	store := objstore.New()
	if err := store.CreateContainer(serveContainer); err != nil {
		return nil, nil, nil, d, err
	}
	if _, err := store.Put(serveContainer, serveObject, b.ckpt[0], nil); err != nil {
		return nil, nil, nil, d, err
	}
	sreg, err := serve.NewRegistry(store, serveContainer)
	if err != nil {
		return nil, nil, nil, d, err
	}
	if err := sreg.Register(serveModel, serveObject); err != nil {
		return nil, nil, nil, d, err
	}
	svc, err := serve.New(serve.DefaultConfig(), sreg, reg)
	if err != nil {
		return nil, nil, nil, d, err
	}
	d[1] = time.Since(t0)
	if code, body := post(svc, b.bodies[0]); code != http.StatusOK {
		svc.Close()
		return nil, nil, nil, d, fmt.Errorf("first reply %d: %s", code, body)
	}
	d[0] = time.Since(t0)
	return svc, sreg, store, d, nil
}

// client is one closed-loop caller's tally.
type client struct {
	lat      []time.Duration // successful requests
	done     []time.Time     // when each of them completed
	replies  []predictReply  // their replies
	failed   int
	problems []string
	reloads  []time.Duration
}

// fail counts a failed request, keeping the first few reasons.
func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (b *serveBench) timed(e env) (*result, error) {
	res := &result{medianOp: true}
	var register []time.Duration
	for i := 0; i < serveSetups-1; i++ {
		svc, _, _, d, err := b.construct(obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		svc.Close()
		res.setup = append(res.setup, d[0])
		register = append(register, d[1])
	}
	reg := e.reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	svc, sreg, store, d, err := b.construct(reg)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	res.setup = append(res.setup, d[0])
	register = append(register, d[1])
	for i := 0; i < serveWarmup; i++ {
		if code, body := post(svc, b.bodies[i%len(b.bodies)]); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up reply %d: %s", code, body)
		}
	}

	before := reg.Snapshot().Counters
	mt := startMeter(e.rec != nil)
	clients, marks := b.drive(e, svc, sreg, store)
	mt.stop(res)
	after := reg.Snapshot().Counters
	for i := 1; i < len(marks); i++ {
		m0, m1 := marks[i-1], marks[i]
		res.stretches = append(res.stretches, stretch{
			attempted: int(m1.attempted - m0.attempted), failed: int(m1.attempted - m0.attempted - m1.ok + m0.ok),
			wall: m1.at.Sub(m0.at), cpu: m1.cpu - m0.cpu, steal: stealShare(m0.steal, m0.ticks, m1.steal, m1.ticks),
		})
	}
	// Each reply belongs to the slice it completed in.
	for _, c := range clients {
		for j, t := range c.done {
			i := sort.Search(len(marks), func(i int) bool { return marks[i].at.After(t) })
			if i > 0 && i < len(marks) {
				res.stretches[i-1].ops = append(res.stretches[i-1].ops, c.lat[j])
			}
		}
	}

	b.replies, b.queued = map[int]int{}, map[int]time.Duration{}
	var queued time.Duration
	var reloads []time.Duration
	var batchSum int
	for _, c := range clients {
		res.ops = append(res.ops, c.lat...)
		res.attempted += len(c.lat) + c.failed
		res.failed += c.failed
		res.problems = append(res.problems, c.problems...)
		reloads = append(reloads, c.reloads...)
		for _, r := range c.replies {
			q := time.Duration(r.QueuedUS) * time.Microsecond
			b.replies[r.BatchSize]++
			b.queued[r.BatchSize] += q
			queued += q
			batchSum += r.BatchSize
		}
	}
	if e.rec == nil {
		return res, nil
	}
	lat := ms(res.ops)
	pct, tailV, ok := tail(lat, res.failed, 10)
	if ok {
		fmt.Printf("# tail_ms is p%g of %d requests\n", pct, len(lat)+res.failed)
	}
	_, self, _ := e.rec.totals()
	ops := float64(max(res.attempted, 1))
	replies := float64(max(len(res.ops), 1))
	delta := func(key string) float64 { return after[key] - before[key] }
	lbl := `{model="` + serveModel + `"}`
	res.layer = map[string]float64{
		"tail_ms":           tailV,
		"serve.register_ms": median(ms(register)),
		"serve.queued_ms":   msf(queued) / replies,
		"serve.http_ms":     msf(self["serve.request"]) / ops,
		"serve.batch_size":  float64(batchSum) / replies,
		"serve.batches":     delta("serve_batches_total"+lbl) / ops,
		"serve.shed":        delta("serve_shed_total"+lbl) / ops,
		"serve.expired":     delta("serve_expired_total"+lbl) / ops,
		"serve.errors":      float64(res.failed) / ops,
		"serve.reloads":     float64(len(reloads)),
		"serve.reload_ms":   median(ms(reloads)),
	}
	return res, nil
}

// sliceMark is the serve window's state at a slice boundary.
type sliceMark struct {
	at            time.Time
	cpu           time.Duration
	steal, ticks  uint64
	ok, attempted int64
}

func markNow(ok, attempted *atomic.Int64) sliceMark {
	steal, ticks := cpuTicks()
	return sliceMark{time.Now(), cpuTime(), steal, ticks, ok.Load(), attempted.Load()}
}

// drive runs one closed-loop client per CPU for e.seconds, each checking
// every reply. Client 0 swaps the checkpoint between its requests once
// per serve.DefaultConfig().PollInterval, and marks the start of each
// swap interval, so every slice between two marks holds one swap; drive
// returns the marks from start to end.
func (b *serveBench) drive(e env, svc *serve.Service, sreg *serve.Registry, store *objstore.Store) ([]*client, []sliceMark) {
	n := runtime.NumCPU()
	every := serve.DefaultConfig().PollInterval
	var ok, attempted atomic.Int64
	marks := []sliceMark{markNow(&ok, &attempted)}
	begin := marks[0].at
	deadline := begin.Add(e.seconds)
	clients := make([]*client, n)
	var wg sync.WaitGroup
	for c := range clients {
		cl := &client{}
		clients[c] = cl
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			version, next := 0, begin.Add(every)
			for i := 0; time.Now().Before(deadline); i++ {
				if c == 0 && !time.Now().Before(next) {
					marks = append(marks, markNow(&ok, &attempted))
					version, next = 1-version, next.Add(every)
					if err := b.reload(sreg, store, version, e, cl); err != nil {
						cl.problems = append(cl.problems, err.Error())
					}
				}
				k := (c + i*n) % len(b.bodies)
				op := c<<32 | i
				sp := e.rec.begin("serve.request", -1, op)
				t0 := time.Now()
				code, body := post(svc, b.bodies[k])
				t1 := time.Now()
				e.rec.end(sp)
				attempted.Add(1)
				if code != http.StatusOK {
					cl.fail("reply %d: %s", code, bytes.TrimSpace(body))
					continue
				}
				var r predictReply
				if err := json.Unmarshal(body, &r); err != nil {
					cl.fail("reply body: %v", err)
					continue
				}
				if got := [2]float64{r.Angle, r.Throttle}; got != b.want[0][k] && got != b.want[1][k] {
					cl.fail("frame %d: reply %v matches neither checkpoint (%v, %v)", k, got, b.want[0][k], b.want[1][k])
					continue
				}
				ok.Add(1)
				cl.lat = append(cl.lat, t1.Sub(t0))
				cl.done = append(cl.done, t1)
				cl.replies = append(cl.replies, r)
				e.rec.add("serve.queued", t1.Add(-time.Duration(r.QueuedUS)*time.Microsecond), t1, sp, op)
			}
		}(c)
	}
	wg.Wait()
	return clients, append(marks, markNow(&ok, &attempted))
}

// reload puts the other checkpoint version and polls the registry, the
// path fed-train's hot swap takes.
func (b *serveBench) reload(sreg *serve.Registry, store *objstore.Store, version int, e env, cl *client) error {
	sp := e.rec.begin("serve.reload", -1, -1)
	t0 := time.Now()
	defer func() {
		cl.reloads = append(cl.reloads, time.Since(t0))
		e.rec.end(sp)
	}()
	if _, err := store.Put(serveContainer, serveObject, b.ckpt[version], nil); err != nil {
		return err
	}
	n, err := sreg.PollOnce()
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("reload swapped %d models, want 1", n)
	}
	return nil
}

// probe times Pilot.InferBatch at every batch size the traced replies
// reported, and derives how long replies waited on the batch window.
func (b *serveBench) probe(e env, res *result) error {
	pl, err := pilot.Load(bytes.NewReader(b.ckpt[0]))
	if err != nil {
		return err
	}
	sizes := make([]int, 0, len(b.replies))
	for s := range b.replies {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	var wait time.Duration
	var replies int
	for _, size := range sizes {
		batch := b.samples[:min(size, len(b.samples))]
		var ds []time.Duration
		for i := 0; i < 200; i++ {
			sp := e.rec.begin(fmt.Sprintf("pilot.infer_batch.b%d", size), -1, i)
			t0 := time.Now()
			if _, err := pl.InferBatch(batch); err != nil {
				return err
			}
			ds = append(ds, time.Since(t0))
			e.rec.end(sp)
		}
		infer := median(ms(ds))
		if size <= 2 {
			res.layer[fmt.Sprintf("pilot.infer_batch_ms.b%d", size)] = infer
		}
		wait += b.queued[size] - time.Duration(float64(b.replies[size])*infer*float64(time.Millisecond))
		replies += b.replies[size]
	}
	res.layer["serve.window_wait_ms"] = msf(wait) / float64(max(replies, 1))
	return nil
}
