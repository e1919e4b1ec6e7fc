package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/sim"
)

const (
	testW         = 24
	testH         = 16
	testContainer = "models"
	testObject    = "student.ckpt"
	testModel     = "student"
)

// testPilot builds a small linear pilot; different seeds give different
// random weights, which the hot-reload test uses to observe a swap.
func testPilot(t testing.TB, seed int64) *pilot.Pilot {
	t.Helper()
	cfg := pilot.DefaultConfig(pilot.Linear, testW, testH, 1)
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseUnits = 4, 8, 16
	cfg.Seed = seed
	p, err := pilot.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkpointBytes(t testing.TB, p *pilot.Pilot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testEnv is a registered store + registry + service ready to serve.
type testEnv struct {
	store   *objstore.Store
	reg     *Registry
	svc     *Service
	metrics *obs.Registry
}

func newTestEnv(t testing.TB, cfg Config) *testEnv {
	t.Helper()
	st := objstore.New()
	if err := st.CreateContainer(testContainer); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(testContainer, testObject, checkpointBytes(t, testPilot(t, 1)), nil); err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(st, testContainer)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(testModel, testObject); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	svc, err := New(cfg, reg, metrics)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return &testEnv{store: st, reg: reg, svc: svc, metrics: metrics}
}

// testFrame fills a frame with deterministic pseudo-random pixels.
func testFrame(t testing.TB, seed int64) *sim.Frame {
	t.Helper()
	f, err := sim.NewFrame(testW, testH, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	return f
}

func predictBody(t testing.TB, frames ...*sim.Frame) []byte {
	t.Helper()
	req := predictRequest{Model: testModel, Width: testW, Height: testH, Channels: 1}
	for _, f := range frames {
		req.Frames = append(req.Frames, EncodeFrame(f))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postPredict(t testing.TB, url string, body []byte, deadlineMS int) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if deadlineMS > 0 {
		req.Header.Set("X-Deadline-Ms", fmt.Sprint(deadlineMS))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero max batch", func(c *Config) { c.MaxBatch = 0 }},
		{"negative window", func(c *Config) { c.BatchWindow = -time.Millisecond }},
		{"zero queue", func(c *Config) { c.QueueDepth = 0 }},
		{"zero deadline", func(c *Config) { c.DefaultDeadline = 0 }},
		{"negative poll", func(c *Config) { c.PollInterval = -time.Second }},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// TestConcurrentPredictsBatch fires concurrent clients at /predict and
// checks (a) every answer matches a reference pilot loaded from the same
// checkpoint, and (b) the scheduler actually coalesced them into fewer
// batches than requests.
func TestConcurrentPredictsBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchWindow = 50 * time.Millisecond
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	ref, err := pilot.Load(bytes.NewReader(checkpointBytes(t, testPilot(t, 1))))
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	type result struct {
		resp predictResponse
		want [2]float64
		code int
	}
	results := make([]result, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := testFrame(t, int64(i))
			body := predictBody(t, f)
			<-start
			resp, data := postPredict(t, ts.URL, body, 5000)
			results[i].code = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(data, &results[i].resp); err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range results {
		if results[i].code != http.StatusOK {
			t.Fatalf("client %d: status %d", i, results[i].code)
		}
		a, th, err := ref.Infer(pilot.Sample{Frames: []*sim.Frame{testFrame(t, int64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		got := results[i].resp
		if math.Abs(got.Angle-a) > 1e-9 || math.Abs(got.Throttle-th) > 1e-9 {
			t.Errorf("client %d: got (%g, %g), reference (%g, %g)", i, got.Angle, got.Throttle, a, th)
		}
	}

	snap := env.metrics.Snapshot()
	key := fmt.Sprintf("serve_batches_total{model=%q}", testModel)
	batches := snap.Counters[key]
	if batches == 0 {
		t.Fatalf("no batches recorded; counters: %v", snap.Counters)
	}
	if batches >= clients {
		t.Errorf("no batching happened: %v batches for %d requests", batches, clients)
	}
	sawMulti := false
	for i := range results {
		if results[i].resp.BatchSize > 1 {
			sawMulti = true
		}
	}
	if !sawMulti {
		t.Error("every request executed alone; expected at least one multi-request batch")
	}
}

// TestAdmissionQueueSheds saturates a depth-1 queue behind a slow model
// and expects 429 + Retry-After for the overflow.
func TestAdmissionQueueSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 1
	cfg.BatchWindow = 0
	cfg.QueueDepth = 1
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	env.svc.SetSlowHook(func() time.Duration { return 60 * time.Millisecond })
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	const clients = 12
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := predictBody(t, testFrame(t, int64(i)))
			<-start
			resp, _ := postPredict(t, ts.URL, body, 5000)
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	close(start)
	wg.Wait()

	ok, shed := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("client %d: 429 without Retry-After", i)
			}
		default:
			t.Errorf("client %d: unexpected status %d", i, c)
		}
	}
	if ok == 0 {
		t.Error("no request served")
	}
	if shed == 0 {
		t.Error("no request shed despite depth-1 queue")
	}
	snap := env.metrics.Snapshot()
	if got := snap.Counters[fmt.Sprintf("serve_shed_total{model=%q}", testModel)]; got != float64(shed) {
		t.Errorf("serve_shed_total = %v, want %d", got, shed)
	}
}

// TestDeadlineExpires checks both expiry paths: the client-side select and
// the scheduler dropping a request whose context died in the queue.
func TestDeadlineExpires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 1
	cfg.BatchWindow = 0
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	env.svc.SetSlowHook(func() time.Duration { return 80 * time.Millisecond })
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	// First request occupies the scheduler for ~80ms; the second, with a
	// 15ms deadline, expires while queued behind it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postPredict(t, ts.URL, predictBody(t, testFrame(t, 1)), 5000)
	}()
	time.Sleep(10 * time.Millisecond)
	resp, body := postPredict(t, ts.URL, predictBody(t, testFrame(t, 2)), 15)
	wg.Wait()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, strings.TrimSpace(string(body)))
	}

	deadline := time.Now().Add(2 * time.Second)
	key := fmt.Sprintf("serve_expired_total{model=%q}", testModel)
	for {
		if env.metrics.Snapshot().Counters[key] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve_expired_total never incremented: %v", env.metrics.Snapshot().Counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHotReload swaps the checkpoint behind a served model and checks the
// poll picks it up without dropping the name.
func TestHotReload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	infoBefore, ok := env.reg.Info(testModel)
	if !ok {
		t.Fatal("model missing from registry")
	}
	body := predictBody(t, testFrame(t, 7))
	_, data := postPredict(t, ts.URL, body, 5000)
	var before predictResponse
	if err := json.Unmarshal(data, &before); err != nil {
		t.Fatal(err)
	}

	// Same object name, new weights (different seed).
	if _, err := env.store.Put(testContainer, testObject, checkpointBytes(t, testPilot(t, 99)), nil); err != nil {
		t.Fatal(err)
	}
	n, err := env.reg.PollOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("PollOnce reloaded %d models, want 1", n)
	}
	// Unchanged store: the second poll is a no-op.
	if n, err := env.reg.PollOnce(); err != nil || n != 0 {
		t.Fatalf("idle PollOnce = (%d, %v), want (0, nil)", n, err)
	}

	infoAfter, _ := env.reg.Info(testModel)
	if infoAfter.ETag == infoBefore.ETag {
		t.Error("ETag unchanged after reload")
	}
	_, data = postPredict(t, ts.URL, body, 5000)
	var after predictResponse
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if before.Angle == after.Angle && before.Throttle == after.Throttle {
		t.Error("prediction identical after weight swap")
	}
	if got := env.metrics.Snapshot().Counters["serve_reloads_total"]; got != 1 {
		t.Errorf("serve_reloads_total = %v, want 1", got)
	}
}

// TestReloadFailureKeepsServing corrupts the stored object and checks the
// poll reports the error while the old pilot keeps answering.
func TestReloadFailureKeepsServing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	if _, err := env.store.Put(testContainer, testObject, []byte("not a checkpoint"), nil); err != nil {
		t.Fatal(err)
	}
	n, err := env.reg.PollOnce()
	if err == nil {
		t.Error("PollOnce swallowed the decode error")
	}
	if n != 0 {
		t.Errorf("reloaded %d models from a corrupt object", n)
	}
	resp, _ := postPredict(t, ts.URL, predictBody(t, testFrame(t, 3)), 5000)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("serving broke after failed reload: status %d", resp.StatusCode)
	}
}

func TestValidationErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	f := testFrame(t, 1)
	good := predictRequest{Model: testModel, Width: testW, Height: testH, Channels: 1,
		Frames: []string{EncodeFrame(f)}}
	cases := []struct {
		name   string
		mutate func(*predictRequest)
		want   int
	}{
		{"unknown model", func(r *predictRequest) { r.Model = "nope" }, http.StatusNotFound},
		{"wrong geometry", func(r *predictRequest) { r.Width = 99 }, http.StatusBadRequest},
		{"no frames", func(r *predictRequest) { r.Frames = nil }, http.StatusBadRequest},
		{"bad base64", func(r *predictRequest) { r.Frames = []string{"!!!"} }, http.StatusBadRequest},
		{"short frame", func(r *predictRequest) { r.Frames = []string{"AAAA"} }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := good
		tc.mutate(&req)
		body, _ := json.Marshal(req)
		resp, data := postPredict(t, ts.URL, body, 0)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode,
				strings.TrimSpace(string(data)), tc.want)
		}
	}

	if resp, err := http.Get(ts.URL + "/predict"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d, want 405", resp.StatusCode)
	}
	// A negative deadline, and any whose duration overflows time.Duration
	// (9223372036855 ms is the first), are rejected; the largest that fits
	// runs.
	for _, tc := range []struct {
		ms   string
		want int
	}{
		{"-3", http.StatusBadRequest},
		{"9223372036855", http.StatusBadRequest},
		{"99999999999999", http.StatusBadRequest},
		{"9223372036854", http.StatusOK},
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/predict", bytes.NewReader(predictBody(t, f)))
		req.Header.Set("X-Deadline-Ms", tc.ms)
		if resp, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		} else if resp.Body.Close(); resp.StatusCode != tc.want {
			t.Errorf("deadline %s ms: status %d, want %d", tc.ms, resp.StatusCode, tc.want)
		}
	}
}

func TestModelsAndMetricsEndpoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != testModel || infos[0].Kind != "linear" {
		t.Fatalf("unexpected /models payload: %+v", infos)
	}
	if infos[0].Params == 0 || infos[0].ETag == "" {
		t.Errorf("missing params/etag in %+v", infos[0])
	}

	// A prediction populates the serving series in /metrics.
	postPredict(t, ts.URL, predictBody(t, testFrame(t, 1)), 5000)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_requests_total", "serve_batch_size", "serve_queue_depth"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
}

// TestCloseRejectsAndDrains closes the service under load: every in-flight
// request must resolve (200 or 503), and later submits are refused.
func TestCloseRejectsAndDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 1
	cfg.BatchWindow = 0
	cfg.PollInterval = 0
	env := newTestEnv(t, cfg)
	env.svc.SetSlowHook(func() time.Duration { return 30 * time.Millisecond })
	ts := httptest.NewServer(env.svc)
	defer ts.Close()

	const clients = 6
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postPredict(t, ts.URL, predictBody(t, testFrame(t, int64(i))), 5000)
			codes[i] = resp.StatusCode
		}(i)
	}
	time.Sleep(15 * time.Millisecond)
	env.svc.Close()
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK && c != http.StatusServiceUnavailable {
			t.Errorf("client %d: status %d, want 200 or 503", i, c)
		}
	}
	resp, _ := postPredict(t, ts.URL, predictBody(t, testFrame(t, 0)), 5000)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close predict: status %d, want 503", resp.StatusCode)
	}
}

// stubShaper dictates one constant shape for every link, forever.
type stubShaper struct{ shape netem.LinkShape }

func (s stubShaper) ShapeAt(string, time.Time) (netem.LinkShape, time.Time) {
	return s.shape, time.Time{}
}

// TestShaperSlowdown checks the live-shaper hook: partitions stall like
// outages, bandwidth cuts stall proportionally, added latency stalls by
// twice the extra one-way delay, and a cut past time.Duration's range
// stalls like an outage.
func TestShaperSlowdown(t *testing.T) {
	base := netem.Link{Name: "wan", Latency: 10 * time.Millisecond, Bandwidth: 1e6}
	const unit = time.Millisecond
	now := func() time.Time { return time.Unix(1_700_000_000, 0) }
	stall := func(sh netem.LinkShape) time.Duration {
		return ShaperSlowdown(stubShaper{sh}, base, now, unit)()
	}
	if d := stall(netem.LinkShape{}); d != 0 {
		t.Fatalf("unshaped stall = %v", d)
	}
	if d := stall(netem.LinkShape{Down: true}); d != 10*unit {
		t.Fatalf("partition stall = %v, want %v", d, 10*unit)
	}
	bw := 0.25e6
	if d := stall(netem.LinkShape{Patch: &netem.LinkPatch{Bandwidth: &bw}}); d != 3*unit {
		t.Fatalf("bandwidth-cut stall = %v, want %v", d, 3*unit)
	}
	lat := 30 * time.Millisecond
	if d := stall(netem.LinkShape{Patch: &netem.LinkPatch{Latency: &lat}}); d != 40*time.Millisecond {
		t.Fatalf("latency stall = %v, want 40ms", d)
	}
	if d := stall(netem.LinkShape{Factor: 2}); d != unit+20*time.Millisecond {
		t.Fatalf("degrade stall = %v, want %v", d, unit+20*time.Millisecond)
	}
	// A rate cut too deep for time.Duration stalls like an outage, not
	// by a wrapped-around negative duration that the batcher skips.
	tiny := 1e-300
	wan := ShaperSlowdown(stubShaper{netem.LinkShape{Patch: &netem.LinkPatch{Bandwidth: &tiny}}},
		netem.CampusWAN, now, 2*time.Millisecond)
	if d := wan(); d != 20*time.Millisecond {
		t.Fatalf("unmodellable bandwidth-cut stall = %v, want %v", d, 20*time.Millisecond)
	}
}
