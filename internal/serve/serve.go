// Package serve is the cloud-side inference endpoint of the continuum: a
// concurrent, micro-batching prediction service over the pilot models. The
// paper's hybrid placement (§3.3) already implies a shared cloud model that
// many cars query; this package builds that endpoint as a real multi-tenant
// service. Each shard's scheduler is work-conserving by default: it runs a
// forward pass as soon as it is idle, over every request that queued while
// the previous pass ran (up to MaxBatch), so requests never wait for a
// timer. A BatchWindow holds each batch open for more requests, which pays
// only on backends with a fixed cost per forward call. A bounded admission
// queue sheds overload with 429 + Retry-After; per-request deadlines
// propagate through context.Context; and a model registry serves named
// pilots hot-reloaded from the object store by ETag polling.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// Config tunes the batching scheduler and admission control.
type Config struct {
	// MaxBatch flushes a mini-batch at this many requests (1 disables
	// batching: every request is its own forward pass).
	MaxBatch int
	// BatchWindow is how long the scheduler holds an open batch after its
	// first request before flushing short. 0, the default, flushes
	// whatever is queued without waiting. A window only helps a backend
	// with a fixed cost per forward call (a kernel launch, an RPC hop):
	// on plain CPU a batch of N costs about N single passes, so the wait
	// is pure latency.
	BatchWindow time.Duration
	// QueueDepth bounds the per-model admission queue; requests beyond it
	// are shed with 429.
	QueueDepth int
	// DefaultDeadline bounds a request that carries no X-Deadline-Ms
	// header. Expired requests are dropped unexecuted.
	DefaultDeadline time.Duration
	// PollInterval is how often `autolearn serve` re-reads its checkpoints
	// and polls the registry for changed ETags (0 disables).
	PollInterval time.Duration
	// Replicas shards each model across this many pilot instances, each
	// with its own batching scheduler, so forward passes run on every
	// core instead of serializing behind one model goroutine. 0 means 1.
	// QueueDepth is split across the shards. Capped at MaxReplicas.
	Replicas int
}

// maxDeadlineMs is the largest X-Deadline-Ms whose duration fits
// time.Duration.
const maxDeadlineMs = int64(math.MaxInt64 / time.Millisecond)

// MaxReplicas bounds Config.Replicas: it keeps the per-shard metric
// label space small and one model's replicas from exhausting memory.
const MaxReplicas = 16

// replicas normalizes Config.Replicas (0 is the single-instance default).
func (c Config) replicas() int {
	if c.Replicas < 1 {
		return 1
	}
	return c.Replicas
}

// DefaultConfig returns serving parameters suited to the 20 Hz control
// loops the cars run: no batch window, so a request waits only for the
// forward pass ahead of it, and batches of up to 32 form from whatever
// queued meanwhile.
func DefaultConfig() Config {
	return Config{
		MaxBatch:        32,
		QueueDepth:      256,
		DefaultDeadline: 250 * time.Millisecond,
		PollInterval:    2 * time.Second,
	}
}

// Validate checks the serving parameters.
func (c Config) Validate() error {
	switch {
	case c.MaxBatch < 1:
		return fmt.Errorf("serve: MaxBatch must be >= 1")
	case c.BatchWindow < 0:
		return fmt.Errorf("serve: BatchWindow must be >= 0")
	case c.QueueDepth < 1:
		return fmt.Errorf("serve: QueueDepth must be >= 1")
	case c.DefaultDeadline <= 0:
		return fmt.Errorf("serve: DefaultDeadline must be positive")
	case c.PollInterval < 0:
		return fmt.Errorf("serve: PollInterval must be >= 0")
	case c.Replicas < 0 || c.Replicas > MaxReplicas:
		return fmt.Errorf("serve: Replicas must be in [0, %d]", MaxReplicas)
	}
	return nil
}

// Service is the HTTP inference endpoint: POST /predict, GET /models,
// GET /healthz, GET /metrics. It is safe for concurrent use.
type Service struct {
	cfg     Config
	reg     *Registry
	metrics *obs.Registry
	mux     *http.ServeMux

	mu       sync.Mutex
	batchers map[string]*shardSet
	slow     func() time.Duration
	closed   bool
}

// New builds a service over a registry. metrics may be nil (instruments
// become no-ops and /metrics serves an empty exposition).
func New(cfg Config, reg *Registry, metrics *obs.Registry) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	if err := reg.SetReplicas(cfg.replicas()); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		reg:      reg,
		metrics:  metrics,
		mux:      http.NewServeMux(),
		batchers: map[string]*shardSet{},
	}
	metrics.Help("serve_queue_depth", "requests waiting in the admission queue, by model (total across shards)")
	metrics.Help("serve_batch_size", "requests per executed mini-batch, by model")
	metrics.Help("serve_request_seconds", "enqueue-to-reply latency, by model")
	metrics.Help("serve_requests_total", "prediction requests admitted or shed, by model")
	metrics.Help("serve_batches_total", "mini-batches executed, by model")
	metrics.Help("serve_shed_total", "requests shed by the bounded admission queue, by model")
	metrics.Help("serve_expired_total", "requests whose deadline expired before execution, by model")
	metrics.Help("serve_replica_queue_depth", "requests waiting in one shard's admission queue, by model and shard")
	metrics.Help("serve_replica_requests_total", "prediction requests routed to one shard, by model and shard")
	metrics.Help("serve_replica_batches_total", "mini-batches executed by one shard, by model and shard")
	reg.Instrument(metrics)
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/metrics", obs.Handler(metrics))
	s.mux.Handle("/debug/obs", obs.DebugHandler(obs.Observer{Metrics: s.metrics}))
	return s, nil
}

// SetSlowHook installs a per-batch slowdown consulted before every forward
// pass (see ShaperSlowdown). Call before serving traffic.
func (s *Service) SetSlowHook(fn func() time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slow = fn
	for _, ss := range s.batchers {
		ss.setSlow(fn)
	}
}

// Close stops every model's scheduler, draining queued requests.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	bs := make([]*shardSet, 0, len(s.batchers))
	for _, ss := range s.batchers {
		bs = append(bs, ss)
	}
	s.mu.Unlock()
	for _, ss := range bs {
		ss.stop()
	}
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// batcherFor returns (creating if needed) the sharded scheduler for a
// registered model name.
func (s *Service) batcherFor(name string) (*shardSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	if ss, ok := s.batchers[name]; ok {
		return ss, nil
	}
	if _, ok := s.reg.Pilot(name); !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	ss := newShardSet(name, s.reg, s.cfg, s.metrics, s.slow)
	s.batchers[name] = ss
	return ss, nil
}

// predictRequest is the POST /predict body. Frames carry base64-encoded
// raw interleaved pixels (W*H*C bytes each), most recent last; sequence
// models take SeqLen frames, the memory model takes MemoryLen prev_cmds.
type predictRequest struct {
	Model    string       `json:"model"`
	Width    int          `json:"width"`
	Height   int          `json:"height"`
	Channels int          `json:"channels"`
	Frames   []string     `json:"frames"`
	PrevCmds [][2]float64 `json:"prev_cmds,omitempty"`
}

// predictResponse is the POST /predict reply.
type predictResponse struct {
	Model     string  `json:"model"`
	Angle     float64 `json:"angle"`
	Throttle  float64 `json:"throttle"`
	BatchSize int     `json:"batch_size"`
	QueuedUS  int64   `json:"queued_us"`
}

// retryAfterSeconds is the backoff hint sent with 429 responses.
const retryAfterSeconds = 1

func (s *Service) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req predictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return
	}
	name := req.Model
	if name == "" {
		if names := s.reg.Names(); len(names) == 1 {
			name = names[0]
		} else {
			http.Error(w, "model name required", http.StatusBadRequest)
			return
		}
	}
	p, ok := s.reg.Pilot(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown model %q", name), http.StatusNotFound)
		return
	}
	sample, err := decodeSample(p.Cfg, req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b, err := s.batcherFor(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}

	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		// A count past maxDeadlineMs would wrap the duration, to an
		// already expired deadline or a short one.
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 || ms > maxDeadlineMs {
			http.Error(w, "X-Deadline-Ms must be a positive integer that fits a duration", http.StatusBadRequest)
			return
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// A caller's X-Trace-Context tags the latency histogram's exemplar.
	pred, err := s.predictOn(ctx, b, sample, obs.ContextFromRequest(r))
	switch {
	case err == nil:
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case err == ErrShuttingDown:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err == context.DeadlineExceeded || err == context.Canceled:
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(predictResponse{
		Model:     name,
		Angle:     pred.Angle,
		Throttle:  pred.Throttle,
		BatchSize: pred.BatchSize,
		QueuedUS:  pred.Queued.Microseconds(),
	})
}

// Prediction is the result of one batched inference.
type Prediction struct {
	Angle     float64       // steering command in [-1, 1]
	Throttle  float64       // throttle command in [-1, 1]
	BatchSize int           // how many requests shared the forward pass
	Queued    time.Duration // submit-to-response wall time
}

// Predict submits one sample to the model's batching scheduler and waits
// for the mini-batch it lands in to execute. It is the in-process
// equivalent of POST /predict: ctx bounds the wait (wrap it with
// context.WithTimeout for a deadline), ErrQueueFull reports admission
// shedding, and ErrShuttingDown a closed service.
func (s *Service) Predict(ctx context.Context, model string, sample pilot.Sample) (Prediction, error) {
	return s.PredictCtx(ctx, obs.SpanContext{}, model, sample)
}

// PredictCtx is Predict continuing a propagated trace: the latency
// histogram is tagged with the trace as an exemplar.
func (s *Service) PredictCtx(ctx context.Context, sc obs.SpanContext, model string, sample pilot.Sample) (Prediction, error) {
	b, err := s.batcherFor(model)
	if err != nil {
		return Prediction{}, err
	}
	return s.predictOn(ctx, b, sample, sc)
}

func (s *Service) predictOn(ctx context.Context, b *shardSet, sample pilot.Sample, sc obs.SpanContext) (Prediction, error) {
	rq := &request{sample: sample, ctx: ctx, sc: sc, enqueued: time.Now(), resp: make(chan response, 1)}
	if err := b.submit(rq); err != nil {
		return Prediction{}, err
	}
	select {
	case resp := <-rq.resp:
		if resp.err != nil {
			return Prediction{}, resp.err
		}
		return Prediction{
			Angle:     resp.angle,
			Throttle:  resp.throttle,
			BatchSize: resp.batch,
			Queued:    time.Since(rq.enqueued),
		}, nil
	case <-ctx.Done():
		return Prediction{}, ctx.Err()
	}
}

// decodeSample validates the request geometry against the model's config
// and decodes the base64 frames into a pilot sample.
func decodeSample(cfg pilot.Config, req predictRequest) (pilot.Sample, error) {
	if req.Width != cfg.Width || req.Height != cfg.Height || req.Channels != cfg.Channels {
		return pilot.Sample{}, fmt.Errorf("frame geometry %dx%dx%d does not match model %dx%dx%d",
			req.Width, req.Height, req.Channels, cfg.Width, cfg.Height, cfg.Channels)
	}
	if len(req.Frames) == 0 {
		return pilot.Sample{}, fmt.Errorf("at least one frame required")
	}
	want := req.Width * req.Height * req.Channels
	s := pilot.Sample{PrevCmds: req.PrevCmds}
	for i, enc := range req.Frames {
		pix, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			return pilot.Sample{}, fmt.Errorf("frame %d: bad base64: %v", i, err)
		}
		if len(pix) != want {
			return pilot.Sample{}, fmt.Errorf("frame %d: %d bytes, want %d", i, len(pix), want)
		}
		f, err := sim.NewFrame(req.Width, req.Height, req.Channels)
		if err != nil {
			return pilot.Sample{}, err
		}
		copy(f.Pix, pix)
		s.Frames = append(s.Frames, f)
	}
	return s, nil
}

func (s *Service) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	names := s.reg.Names()
	infos := make([]ModelInfo, 0, len(names))
	for _, n := range names {
		if info, ok := s.reg.Info(n); ok {
			infos = append(infos, info)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// EncodeFrame encodes a frame's raw pixels for a predictRequest; clients
// (the CLI, benchmarks) share it so the wire format has one definition.
func EncodeFrame(f *sim.Frame) string {
	return base64.StdEncoding.EncodeToString(f.Pix)
}
