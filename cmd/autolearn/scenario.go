package main

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// cmdScenario groups the scenario-file utilities: `check` validates and
// canonicalizes a file, `probe` measures the declared links as shaped at
// a chosen instant of the scripted run.
func cmdScenario(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("scenario: want a subcommand: check|probe")
	}
	switch args[0] {
	case "check":
		return cmdScenarioCheck(args[1:])
	case "probe":
		return cmdScenarioProbe(args[1:])
	default:
		return fmt.Errorf("scenario: unknown subcommand %q (want check|probe)", args[0])
	}
}

// loadScenarioRuntime parses a scenario file into a runtime anchored at
// the shared epoch — the same construction every subsystem uses, so a
// file that checks out here replays identically under pipeline,
// fed-train, and serve.
func loadScenarioRuntime(file string, seed int64) (*scenario.Runtime, error) {
	s, err := scenario.Load(file)
	if err != nil {
		return nil, err
	}
	return scenario.NewRuntime(s, seed, faults.Epoch)
}

// faultRuntime builds the run's scenario runtime: the scenario -faults
// NAME generates from the run seed, the file -scenario FILE names, or,
// with neither flag, the empty scenario, which runs fault-free on the
// same virtual clock. cmd prefixes the flag-clash error.
func faultRuntime(cmd, profile, file string, seed int64) (*scenario.Runtime, error) {
	switch {
	case profile != "" && file != "":
		return nil, fmt.Errorf("%s: -scenario and -faults are mutually exclusive", cmd)
	case file != "":
		return loadScenarioRuntime(file, seed)
	case profile != "":
		s, err := scenario.Profile(profile, seed)
		if err != nil {
			return nil, err
		}
		return scenario.NewRuntime(s, seed, faults.Epoch)
	}
	return scenario.NewRuntime(&scenario.Scenario{Name: "fault-free"}, seed, faults.Epoch)
}

// finishRun is the tail pipeline and fed-train share. It prints the
// fault tally and writes -metrics as the run left them, then plays the
// scenario clock past its horizon so every phase transition lands in
// the trace, and writes -trace. Heartbeat playback keeps running during
// that drain, so nothing reported before it may count what it injects.
func finishRun(rt *scenario.Runtime, o obs.Observer, of obsFlags) error {
	fmt.Printf("== faults: %s\n", rt.Plan().Summary())
	if err := of.writeMetrics(o); err != nil {
		return err
	}
	rt.Clock().Advance(rt.Scenario().Horizon())
	fmt.Printf("== scenario: %d phase transitions\n", rt.Finish())
	return of.writeTrace(o)
}

func cmdScenarioCheck(args []string) error {
	fs := flag.NewFlagSet("scenario check", flag.ExitOnError)
	file := fs.String("file", "", "scenario file (required)")
	seed := fs.Int64("seed", 1, "run seed (a seed directive in the file wins)")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("scenario check: -file is required")
	}
	rt, err := loadScenarioRuntime(*file, *seed)
	if err != nil {
		return err
	}
	s := rt.Scenario()
	fmt.Printf("== %s\n", rt.Describe())
	for i, ph := range s.Phases {
		fmt.Printf("   phase %d: %v..%v %-9s %s\n", i+1, ph.Start, ph.End, ph.Kind, ph.Target())
	}
	fmt.Println("== canonical form:")
	fmt.Print(scenario.Format(s))
	return nil
}

func cmdScenarioProbe(args []string) error {
	fs := flag.NewFlagSet("scenario probe", flag.ExitOnError)
	file := fs.String("file", "", "scenario file (required)")
	at := fs.Duration("at", 0, "instant into the scripted run to probe at (0 or later)")
	link := fs.String("link", "", "probe one link the file declares (empty = all)")
	tol := fs.Float64("tol", 0.25, "relative tolerance for the declared-vs-measured check")
	bytes := fs.Int64("bytes", 0, "payload per bulk transfer (0 = probe default)")
	seed := fs.Int64("seed", 1, "run seed (a seed directive in the file wins)")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("scenario probe: -file is required")
	}
	if *at < 0 {
		return fmt.Errorf("scenario probe: -at %v is before the scripted run starts", *at)
	}
	rt, err := loadScenarioRuntime(*file, *seed)
	if err != nil {
		return err
	}
	names := rt.Scenario().LinkNames()
	if len(names) == 0 {
		return fmt.Errorf("scenario probe: %s declares no links", *file)
	}
	if *link != "" {
		if !slices.Contains(names, *link) {
			return fmt.Errorf("scenario probe: -link %q is not declared in %s (declared: %s)",
				*link, *file, strings.Join(names, ", "))
		}
		names = []string{*link}
	}
	net := netem.NewNet(rt.Seed())
	rt.Attach(net)
	rt.Clock().Advance(*at)

	var down, failed int
	for _, name := range names {
		// A declared link netem does not stock runs on ByName's generic
		// profile, as it does under the scenario's shaper.
		base, _ := netem.ByName(name)
		res, err := net.Probe(base, netem.ProbeConfig{Bytes: *bytes})
		if errors.Is(err, netem.ErrLinkDown) {
			down++
			fmt.Printf("%-16s at %v: DOWN (partitioned)\n", name, *at)
			continue
		}
		if err != nil {
			failed++
			fmt.Printf("%-16s at %v: PROBE FAILED: %v\n", name, *at, err)
			continue
		}
		verdict := "within tolerance"
		if err := res.Check(*tol); err != nil {
			failed++
			verdict = "OUT OF TOLERANCE: " + err.Error()
		}
		fmt.Printf("%-16s at %v: declared %s/%v rtt, loss %.4f; measured %s/%v rtt, loss %.4f (%d retrans) — %s\n",
			name, *at,
			scenario.FormatBandwidth(res.Declared.Bandwidth), 2*res.Declared.Latency, res.Declared.LossRate,
			scenario.FormatBandwidth(res.MeasuredBandwidth), res.MeasuredRTT.Round(time.Microsecond), res.MeasuredLoss,
			res.Retransmits, verdict)
	}
	if down > 0 || failed > 0 {
		return fmt.Errorf("scenario probe: %d of %d links down, %d out of tolerance", down, len(names), failed)
	}
	return nil
}
