package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netctl"
	"repro/internal/netem"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// modelSpec is one -models entry: a checkpoint file served under a name.
type modelSpec struct {
	name   string // registry name clients put in the request body
	file   string // checkpoint path on disk, re-read on every poll
	object string // object name inside the models container
}

// parseModelSpecs splits "name=file,name2=file2" (the name defaults to the
// file's base name without extension).
func parseModelSpecs(s string) ([]modelSpec, error) {
	if s == "" {
		return nil, fmt.Errorf("serve: -models is required (name=checkpoint[,name=checkpoint...])")
	}
	var specs []modelSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec := modelSpec{file: part}
		if i := strings.IndexByte(part, '='); i >= 0 {
			spec.name, spec.file = part[:i], part[i+1:]
		}
		if spec.file == "" {
			return nil, fmt.Errorf("serve: empty checkpoint path in %q", part)
		}
		if spec.name == "" {
			base := filepath.Base(spec.file)
			spec.name = strings.TrimSuffix(base, filepath.Ext(base))
		}
		if seen[spec.name] {
			return nil, fmt.Errorf("serve: duplicate model name %q", spec.name)
		}
		seen[spec.name] = true
		spec.object = spec.name + ".ckpt"
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no models in %q", s)
	}
	return specs, nil
}

// servingApp wires checkpoint files -> object store -> registry -> service.
type servingApp struct {
	store   *objstore.Store
	reg     *serve.Registry
	svc     *serve.Service
	metrics *obs.Registry
	specs   []modelSpec
}

func buildServing(specs []modelSpec, cfg serve.Config, quant string) (*servingApp, error) {
	store := objstore.New()
	if err := store.CreateContainer(core.ContainerModels); err != nil {
		return nil, err
	}
	reg, err := serve.NewRegistry(store, core.ContainerModels)
	if err != nil {
		return nil, err
	}
	// Quantization is set before the first Register so every load applies
	// it; an unsupported mode surfaces as that first Register's error.
	if err := reg.SetQuant(quant); err != nil {
		return nil, err
	}
	a := &servingApp{store: store, reg: reg, metrics: obs.NewRegistry(), specs: specs}
	for _, spec := range specs {
		data, err := os.ReadFile(spec.file)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if _, err := store.Put(core.ContainerModels, spec.object, data, nil); err != nil {
			return nil, err
		}
		if err := reg.Register(spec.name, spec.object); err != nil {
			return nil, err
		}
	}
	a.svc, err = serve.New(cfg, reg, a.metrics)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// refresh re-reads every checkpoint file into the store and polls the
// registry: editing a checkpoint on disk hot-swaps the served model. An
// unchanged file produces the same ETag, so the poll is a no-op for it;
// an unreadable file leaves the currently served weights in place.
func (a *servingApp) refresh() (int, error) {
	var firstErr error
	for _, spec := range a.specs {
		data, err := os.ReadFile(spec.file)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if _, err := a.store.Put(core.ContainerModels, spec.object, data, nil); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n, err := a.reg.PollOnce()
	if firstErr == nil {
		firstErr = err
	}
	return n, firstErr
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8899", "listen address")
	models := fs.String("models", "", "name=checkpoint pairs, comma-separated (required)")
	maxBatch := fs.Int("max-batch", 0, "requests per mini-batch (0 = default)")
	window := fs.Duration("batch-window", serve.DefaultConfig().BatchWindow,
		"how long to hold an open batch for more requests; 0 dispatches as soon as a shard is idle (a window pays only on backends with a per-dispatch cost)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = default)")
	deadline := fs.Duration("deadline", 0, "default per-request deadline (0 = default)")
	replicas := fs.Int("replicas", 0, fmt.Sprintf("scheduler shards per model, each with its own pilot instance (0 = 1, max %d)", serve.MaxReplicas))
	quant := fs.String("quant", "", "quantized inference mode: int8 (empty = float64)")
	poll := fs.Duration("poll", serve.DefaultConfig().PollInterval, "checkpoint reload poll interval (0 disables)")
	scnFile := fs.String("scenario", "", "scenario file scripting the serving WAN with link phases (netctl pane at /netctl/); objstore, silence and preempt are rejected")
	fs.Parse(args)

	specs, err := parseModelSpecs(*models)
	if err != nil {
		return err
	}
	var rt *scenario.Runtime
	if *scnFile != "" {
		if rt, err = loadScenarioRuntime(*scnFile, 1); err != nil {
			return err
		}
		if err := servable(rt.Scenario()); err != nil {
			return err
		}
	}
	cfg := serve.DefaultConfig()
	if *maxBatch > 0 {
		cfg.MaxBatch = *maxBatch
	}
	cfg.BatchWindow = *window
	if *queue > 0 {
		cfg.QueueDepth = *queue
	}
	if *deadline > 0 {
		cfg.DefaultDeadline = *deadline
	}
	if *replicas > 0 {
		cfg.Replicas = *replicas
	}
	cfg.PollInterval = *poll
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, *addr, specs, cfg, *quant, rt)
}

// servable rejects the scenario directives serve cannot apply: objstore
// and silence phases and preempt act on a run's object store, heartbeat
// devices and training lease, and a server has none of them, so running
// such a file would silently ignore part of it.
func servable(s *scenario.Scenario) error {
	if s.Preempt > 0 {
		return fmt.Errorf("serve: scenario %q sets preempt, but serve holds no training lease; serve applies link phases only", s.Name)
	}
	for _, ph := range s.Phases {
		if ph.Kind == scenario.Objstore || ph.Kind == scenario.Silence {
			return fmt.Errorf("serve: scenario %q has a %s phase at %v..%v; serve applies link phases only", s.Name, ph.Kind, ph.Start, ph.End)
		}
	}
	return nil
}

// runServe serves until ctx is canceled, then drains the HTTP server and
// the batching schedulers. Every cfg.PollInterval it re-reads the
// checkpoint files and hot-swaps changed models. A non-nil scenario
// runtime scripts the serving WAN: its clock advances in wall time, its
// shapes slow the batchers, and the netctl control plane is mounted at
// /netctl/ for live mutations.
func runServe(ctx context.Context, addr string, specs []modelSpec, cfg serve.Config, quant string, rt *scenario.Runtime) error {
	a, err := buildServing(specs, cfg, quant)
	if err != nil {
		return err
	}
	defer a.svc.Close()
	var handler http.Handler = a.svc
	if rt != nil {
		fabric := netem.NewNet(rt.Seed())
		rt.Attach(fabric)
		nsrv := netctl.New(rt, fabric)
		nsrv.SetObserver(obs.Observer{Metrics: a.metrics})
		rt.SetEventHook(nsrv.PublishEvent)
		rt.Start(obs.Observer{Metrics: a.metrics})
		defer rt.Finish()
		// Shapes on the campus WAN slow every batch: a partitioned link
		// stalls like an outage, a throttled one stalls proportionally.
		a.svc.SetSlowHook(serve.ShaperSlowdown(rt.Table(), netem.CampusWAN, rt.Clock().Now, 2*time.Millisecond))
		// The scripted clock rides wall time while the server runs.
		go func() {
			const step = 100 * time.Millisecond
			t := time.NewTicker(step)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					rt.Clock().Advance(step)
				}
			}
		}()
		mux := http.NewServeMux()
		mux.Handle("/", a.svc)
		mux.Handle("/netctl/", http.StripPrefix("/netctl", nsrv))
		handler = mux
		fmt.Printf("scenario: %s; netctl pane at /netctl/\n", rt.Describe())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if cfg.PollInterval > 0 {
		go func() {
			t := time.NewTicker(cfg.PollInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n, err := a.refresh(); err != nil {
						fmt.Fprintln(os.Stderr, "autolearn serve: poll:", err)
					} else if n > 0 {
						fmt.Printf("reloaded %d model(s)\n", n)
					}
				}
			}
		}()
	}
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	prec := "float64"
	if quant != "" {
		prec = quant
	}
	reps := cfg.Replicas
	if reps < 1 {
		reps = 1
	}
	fmt.Printf("serving %s on %s (max batch %d, window %v, queue %d, replicas %d, %s); POST /predict, GET /models, GET /metrics\n",
		strings.Join(a.reg.Names(), ", "), ln.Addr(), cfg.MaxBatch, cfg.BatchWindow, cfg.QueueDepth, reps, prec)
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	case err := <-errc:
		return err
	}
}
