// Command webserve runs the DonkeyCar-style web controller against a live
// simulated car: the drive loop runs locally while a browser (or curl)
// steers over HTTP and watches the camera at /video. Prometheus-format
// runtime metrics are served at /metrics. Ctrl-C shuts down cleanly: the
// HTTP server drains and the drive loop stops at a tick boundary.
//
//	webserve -addr :8887 -track default-oval
//	curl -X POST localhost:8887/drive -d '{"angle":0.2,"throttle":0.5}'
//	curl localhost:8887/state
//	curl localhost:8887/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/netctl"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/webctl"
)

func main() {
	addr := flag.String("addr", ":8887", "listen address")
	trackName := flag.String("track", "default-oval", "track name")
	hz := flag.Float64("hz", 20, "drive loop rate")
	scnFile := flag.String("scenario", "", "scenario file to script the netctl pane's fabric (empty = clean stock links)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, *trackName, *hz, *scnFile); err != nil {
		fmt.Fprintln(os.Stderr, "webserve:", err)
		os.Exit(1)
	}
}

// app is the assembled simulation + web layer, separated from the
// listener so tests can drive the loop and handlers directly.
type app struct {
	srv    *webctl.Server
	reg    *obs.Registry
	tracer *obs.Tracer
	mux    *http.ServeMux
	loop   func(ctx context.Context)
}

func build(trackName string, hz float64, scnFile string) (*app, error) {
	if hz <= 0 {
		return nil, fmt.Errorf("hz must be positive")
	}
	trk, err := track.ByName(trackName)
	if err != nil {
		return nil, err
	}
	cam, err := sim.NewCamera(sim.DefaultCameraConfig(), trk)
	if err != nil {
		return nil, err
	}
	car, err := sim.NewCar(sim.DefaultCarConfig())
	if err != nil {
		return nil, err
	}
	x, y, h := trk.StartPose(0)
	car.Reset(x, y, h)

	ctl := sim.NewWebController()
	srv, err := webctl.New(ctl, car)
	if err != nil {
		return nil, err
	}
	// Publish the starting pose before the loop exists so /state never
	// falls back to reading the car directly while the loop steps it.
	srv.UpdateState(car.State)

	reg := obs.NewRegistry()
	tracer := obs.NewTracer()
	srv.SetObserver(obs.Observer{Tracer: tracer, Metrics: reg})
	reg.Help("webserve_frames_total", "camera frames rendered by the drive loop")
	reg.Help("webserve_loop_hz", "configured drive loop rate")
	reg.Help("webserve_tick_seconds", "wall-clock cost of one physics+render tick")
	reg.Gauge("webserve_loop_hz").Set(hz)
	frames := reg.Counter("webserve_frames_total")
	tickHist := reg.Histogram("webserve_tick_seconds", obs.DefSecondsBuckets)

	// Two render buffers, swapped each tick: once UpdateFrame publishes
	// one, the server owns it until the next publish, so the loop renders
	// into the other instead of allocating a frame per tick.
	front, err := sim.NewFrame(cam.Cfg.Width, cam.Cfg.Height, cam.Cfg.Channels)
	if err != nil {
		return nil, err
	}
	back, err := sim.NewFrame(cam.Cfg.Width, cam.Cfg.Height, cam.Cfg.Channels)
	if err != nil {
		return nil, err
	}

	// The netctl pane: a second dashboard over a live link fabric, run by
	// a scenario runtime whose clock the drive loop advances in wall time.
	// A -scenario file scripts the fabric; without one the empty scenario
	// declares the stock links and every shape arrives over REST. The
	// runtime gets metrics only, so request spans stay on the wall clock.
	var scn *scenario.Scenario
	if scnFile != "" {
		if scn, err = scenario.Load(scnFile); err != nil {
			return nil, err
		}
	} else {
		scn = &scenario.Scenario{Name: "fault-free"}
		for _, l := range netem.Stock() {
			scn.Links = append(scn.Links, scenario.LinkDecl{Name: l.Name})
		}
	}
	rt, err := scenario.NewRuntime(scn, 1, time.Now().UTC())
	if err != nil {
		return nil, err
	}
	fabric := netem.NewNet(1)
	rt.Attach(fabric)
	nsrv := netctl.New(rt, fabric)
	nsrv.SetObserver(obs.Observer{Metrics: reg})
	rt.SetEventHook(nsrv.PublishEvent)
	rt.Start(obs.Observer{Metrics: reg})

	// Drive loop: controller commands move the physics; frame and state
	// snapshots refresh /video and /state.
	loop := func(ctx context.Context) {
		period := time.Duration(float64(time.Second) / hz)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			t0 := time.Now()
			steering, throttle := ctl.Drive(car.State)
			car.Step(steering, throttle, 1/hz)
			cam.RenderInto(car.State, back)
			srv.UpdateFrame(back)
			srv.UpdateState(car.State)
			front, back = back, front
			frames.Inc()
			tickHist.ObserveDuration(time.Since(t0))
			rt.Clock().Advance(period)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.Handle("/netctl/", http.StripPrefix("/netctl", nsrv))
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/debug/obs", obs.DebugHandler(obs.Observer{Tracer: tracer, Metrics: reg}))
	return &app{srv: srv, reg: reg, tracer: tracer, mux: mux, loop: loop}, nil
}

// run serves until ctx is canceled, then shuts the HTTP server down
// gracefully and stops the drive loop.
func run(ctx context.Context, addr, trackName string, hz float64, scnFile string) error {
	a, err := build(trackName, hz, scnFile)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go a.loop(ctx)

	hs := &http.Server{Handler: a.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("web controller on %s (track %s); POST /drive, GET /state, GET /video, GET /metrics, GET /debug/obs, netctl pane at /netctl/",
		ln.Addr(), trackName)
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	case err := <-errc:
		return err
	}
}
