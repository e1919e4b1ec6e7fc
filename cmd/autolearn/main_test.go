package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCmdTracks(t *testing.T) {
	if err := cmdTracks(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPlacement(t *testing.T) {
	if err := cmdPlacement([]string{"-params", "100000"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdZero(t *testing.T) {
	if err := cmdZero([]string{"-image-mb", "100"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdTwin(t *testing.T) {
	if err := cmdTwin([]string{"-ticks", "120"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCollectRequiresOut(t *testing.T) {
	if err := cmdCollect(nil); err == nil {
		t.Error("missing -out accepted")
	}
}

func TestCmdCleanRequiresTub(t *testing.T) {
	if err := cmdClean(nil); err == nil {
		t.Error("missing -tub accepted")
	}
}

func TestCmdTrainRequiresArgs(t *testing.T) {
	if err := cmdTrain(nil); err == nil {
		t.Error("missing flags accepted")
	}
}

func TestCmdEvaluateRequiresModel(t *testing.T) {
	if err := cmdEvaluate(nil); err == nil {
		t.Error("missing -model accepted")
	}
}

func TestCmdMergeRequiresArgs(t *testing.T) {
	if err := cmdMerge(nil); err == nil {
		t.Error("missing args accepted")
	}
}

func TestCollectCleanTrainEvaluateFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	tubDir := dir + "/tub"
	ckpt := dir + "/model.ckpt"
	if err := cmdCollect([]string{"-out", tubDir, "-ticks", "400"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdClean([]string{"-tub", tubDir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{"-tub", tubDir, "-out", ckpt, "-epochs", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEvaluate([]string{"-model", ckpt, "-ticks", "200"}); err != nil {
		t.Fatal(err)
	}
	// The same checkpoint must evaluate on the int8 path, reporting its
	// drift against float64; an unknown mode is rejected up front.
	if err := cmdEvaluate([]string{"-model", ckpt, "-ticks", "200", "-quant", "int8"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEvaluate([]string{"-model", ckpt, "-ticks", "200", "-quant", "int4"}); err == nil {
		t.Fatal("evaluate accepted unsupported quantization mode")
	}
}

// TestInterruptRemovesWorkDir: a pipeline or hybrid run whose context
// is canceled (Ctrl-C) once its work directory exists stops at the next
// phase boundary with context.Canceled and leaves TMPDIR empty.
func TestInterruptRemovesWorkDir(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(context.Context, []string) error
	}{
		{"pipeline", runPipeline},
		{"hybrid", runHybrid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				defer cancel()
				for ctx.Err() == nil {
					if entries, _ := os.ReadDir(tmp); len(entries) > 0 {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
			if err := tc.run(ctx, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s returned %v, want context.Canceled", tc.name, err)
			}
			entries, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("%s left %s in TMPDIR", tc.name, e.Name())
			}
		})
	}
}

// stdoutOf runs fn with os.Stdout sent to a file and returns what fn
// printed, with fn's error.
func stdoutOf(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	runErr := fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestCmdPipelineTraces runs the pipeline fault-free and under the
// lossy-wan profile, twice each: every run completes and prints its fault
// tally, only the lossy-wan runs fall back to the on-device pilot,
// same-seed runs export byte-identical traces, and no run leaves its work
// directory in TMPDIR.
func TestCmdPipelineTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name      string
		args      []string
		fallbacks bool
	}{
		{"fault-free", nil, false},
		{"lossy-wan", []string{"-faults", "lossy-wan"}, true},
	} {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		var traces [2][]byte
		for i := range traces {
			trace := filepath.Join(dir, c.name+strconv.Itoa(i)+".jsonl")
			metrics := filepath.Join(dir, c.name+strconv.Itoa(i)+".prom")
			out, err := stdoutOf(t, func() error {
				return runPipeline(context.Background(), append(c.args, "-trace", trace, "-metrics", metrics))
			})
			if err != nil {
				t.Fatalf("%s: %v\n%s", c.name, err, out)
			}
			if !strings.Contains(out, "\n== faults: ") {
				t.Errorf("%s: run printed no fault tally:\n%s", c.name, out)
			}
			if got := promValue(t, metrics, "hybrid_fallbacks_total"); (got > 0) != c.fallbacks {
				t.Errorf("%s: hybrid_fallbacks_total = %v, want fallbacks %v", c.name, got, c.fallbacks)
			}
			if traces[i], err = os.ReadFile(trace); err != nil {
				t.Fatal(err)
			}
		}
		if len(traces[0]) == 0 || !bytes.Equal(traces[0], traces[1]) {
			t.Errorf("%s: same-seed runs exported different traces (%d vs %d bytes)",
				c.name, len(traces[0]), len(traces[1]))
		}
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%s: run left %s in TMPDIR", c.name, e.Name())
		}
	}
}

// TestCmdPipelineRejectsFlagMistakes pins pipeline's up-front checks: an
// unknown pilot kind or GPU SKU, an unknown fault profile, a missing
// scenario file, and -faults with -scenario all fail, naming the mistake,
// before any phase runs.
func TestCmdPipelineRejectsFlagMistakes(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-model", "nosuch"}, "-model"},
		{[]string{"-gpu", "H100"}, "-gpu"},
		{[]string{"-faults", "nope"}, "unknown fault profile"},
		{[]string{"-scenario", "no/such.scn"}, "no such file"},
		{[]string{"-faults", "lossy-wan", "-scenario", "scenarios/clean.scn"}, "mutually exclusive"},
	}
	for _, c := range cases {
		out, err := stdoutOf(t, func() error { return runPipeline(context.Background(), c.args) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("pipeline %v: got %v, want an error naming %q", c.args, err, c.want)
		}
		if strings.Contains(out, "== phase") {
			t.Errorf("pipeline %v: ran phases before rejecting its flags:\n%s", c.args, out)
		}
	}
}

// TestCmdScenarioProbe probes library scenarios: the clean link and
// lossy-wan's shaped sag measure as declared, a partitioned link is
// reported down, and a link the file does not declare or an instant
// before the run starts is rejected.
func TestCmdScenarioProbe(t *testing.T) {
	lib := func(name string) string { return filepath.Join("..", "..", "scenarios", name+".scn") }
	for _, c := range []struct {
		args []string
		want string // "" = the probe passes
	}{
		{[]string{"-file", lib("clean"), "-at", "60s"}, ""},
		{[]string{"-file", lib("lossy-wan"), "-at", "90s"}, ""},
		{[]string{"-file", lib("cloud-partition"), "-at", "60s"}, "1 of 1 links down"},
		{[]string{"-file", lib("clean"), "-link", "nosuch"}, "-link"},
		{[]string{"-file", lib("lossy-wan"), "-link", "home-broadband", "-at", "90s"}, "-link"},
		{[]string{"-file", lib("clean"), "-at", "-90s"}, "-at"},
	} {
		err := cmdScenarioProbe(c.args)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("scenario probe %v: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("scenario probe %v: got %v, want an error naming %q", c.args, err, c.want)
		}
	}
}

// TestCmdFedTrainRejectsFlagMistakes pins fed-train's up-front checks: a
// flag of the other topology, an unknown topology, peer link or fault
// profile, a missing scenario file, and -faults with -scenario all fail
// before any driving is collected. With -ticks 1 a run that got past the
// checks fails on its tiny drive instead, which is what the accepted
// combinations expect.
func TestCmdFedTrainRejectsFlagMistakes(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-topology", "gossip", "-quorum", "2"}, "-quorum"},
		{[]string{"-topology", "gossip", "-hierarchical"}, "-hierarchical"},
		{[]string{"-topology", "gossip", "-regions", "2"}, "-regions"},
		{[]string{"-topology", "gossip", "-ingress-serial"}, "-ingress-serial"},
		{[]string{"-fanout", "2"}, "-fanout"},
		{[]string{"-topology", "star", "-peer-k", "3"}, "-peer-k"},
		{[]string{"-anti-entropy", "1"}, "-anti-entropy"},
		{[]string{"-peer-link", "nosuch"}, "-peer-link"},
		{[]string{"-topology", "gossip", "-peer-link", "nosuch"}, "unknown -peer-link"},
		{[]string{"-topology", "mesh"}, "unknown -topology"},
		{[]string{"-faults", "lossy-wan", "-scenario", "scenarios/clean.scn"}, "mutually exclusive"},
		{[]string{"-faults", "nope"}, "unknown fault profile"},
		{[]string{"-scenario", "no/such.scn"}, "no such file"},
		{[]string{"-topology", "gossip", "-fanout", "2", "-peer-link", "wifi-local"}, "raise -ticks"},
		{[]string{"-quorum", "2", "-hierarchical", "-regions", "2", "-ingress-serial"}, "raise -ticks"},
	}
	for _, c := range cases {
		err := cmdFedTrain(append(c.args, "-ticks", "1"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("fed-train %v: got %v, want an error naming %q", c.args, err, c.want)
		}
	}
}

// promValue reads one series' value from a Prometheus text file; an
// absent series reads as 0.
func promValue(t *testing.T, path, series string) float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	return 0
}

// TestCmdFedTrainStoreFaults runs both topologies to completion while
// every second object-store attempt fails: the store faults must reach
// the fleet's checkpoints and the serving hook's reads, and the retry
// policy must carry both through them.
func TestCmdFedTrainStoreFaults(t *testing.T) {
	dir := t.TempDir()
	scn := filepath.Join(dir, "objstore.scn")
	if err := os.WriteFile(scn, []byte("scenario v1\nphase 0s..10m objstore every=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, topology := range []string{"star", "gossip"} {
		metrics := filepath.Join(dir, topology+".prom")
		if err := cmdFedTrain([]string{"-topology", topology, "-workers", "2", "-rounds", "2",
			"-ticks", "240", "-scenario", scn, "-metrics", metrics}); err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		if got := promValue(t, metrics, `faults_injected_total{kind="objstore"}`); got <= 0 {
			t.Errorf("%s: no objstore faults injected", topology)
		}
	}
}

// traceSpanNames reads run's JSONL trace and returns the names of its
// spans. The trace must hold spans and no orphan: obs.WriteTraceReport
// fails on a span whose parent the file lacks.
func traceSpanNames(t *testing.T, run string, trace []byte) map[string]bool {
	t.Helper()
	recs, err := obs.ReadTraceJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("%s: %v", run, err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s: trace holds no spans", run)
	}
	if err := obs.WriteTraceReport(io.Discard, recs); err != nil {
		t.Fatalf("%s: %v", run, err)
	}
	names := map[string]bool{}
	for _, r := range recs {
		names[r.Name] = true
	}
	return names
}

// TestCmdFedTrainTraces runs each topology fault-free and the star under
// the lossy-wan profile, twice each: same-seed runs export byte-identical
// traces, and a run's trace is a tree with no orphan that holds every
// stage of its topology, across the fleet, netem, the object store and
// the serving hook.
func TestCmdFedTrainTraces(t *testing.T) {
	star := []string{"fed-train", "fed-round", "fed_local_train", "fed_upload", "fed_aggregate",
		"fed_checkpoint", "netem_transfer", "objstore_put", "serve_reload"}
	gossip := []string{"gossip-train", "gossip-round", "gossip_local_train", "gossip_exchange",
		"gossip_validate", "netem_transfer", "serve_reload"}
	dir := t.TempDir()
	for _, c := range []struct {
		name  string
		args  []string
		spans []string
	}{
		{"star", []string{"-workers", "2"}, star},
		{"gossip", []string{"-topology", "gossip", "-workers", "2"}, gossip},
		{"star-lossy-wan", []string{"-faults", "lossy-wan", "-workers", "3"}, star},
	} {
		var traces [2][]byte
		for i := range traces {
			path := filepath.Join(dir, c.name+strconv.Itoa(i)+".jsonl")
			if err := cmdFedTrain(append(c.args, "-rounds", "2", "-ticks", "240", "-trace", path)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var err error
			if traces[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Errorf("%s: same-seed runs exported different traces (%d vs %d bytes)",
				c.name, len(traces[0]), len(traces[1]))
		}
		names := traceSpanNames(t, c.name, traces[0])
		for _, span := range c.spans {
			if !names[span] {
				t.Errorf("%s: trace has no %s span", c.name, span)
			}
		}
	}
}

// TestCmdFedTrainHeartbeatGap runs both topologies under the
// heartbeat-gap profile: the fleet plays its workers' heartbeats whatever
// the topology, so each run's metrics count the check-ins the scripted
// silences swallowed.
func TestCmdFedTrainHeartbeatGap(t *testing.T) {
	dir := t.TempDir()
	for _, topology := range []string{"star", "gossip"} {
		metrics := filepath.Join(dir, topology+".prom")
		if err := cmdFedTrain([]string{"-topology", topology, "-faults", "heartbeat-gap", "-seed", "3",
			"-workers", "4", "-rounds", "5", "-metrics", metrics}); err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		if got := promValue(t, metrics, `faults_injected_total{kind="heartbeat_gap"}`); got <= 0 {
			t.Errorf("%s: heartbeat_gap = %v, want > 0", topology, got)
		}
	}
}

// TestCmdFedTrainTallyExcludesDrain is the tally regression: the run
// ends about 31s into the cascading outage, before its 1m30s silence
// opens, so the exported metrics must count no heartbeat gap even though
// the clock is later played past the scenario horizon for the trace.
func TestCmdFedTrainTallyExcludesDrain(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "fed.prom")
	if err := cmdFedTrain([]string{"-scenario", "../../scenarios/cascading-outage.scn",
		"-workers", "6", "-rounds", "2", "-seed", "4", "-ticks", "240", "-metrics", metrics}); err != nil {
		t.Fatal(err)
	}
	if got := promValue(t, metrics, `faults_injected_total{kind="heartbeat_gap"}`); got != 0 {
		t.Fatalf("heartbeat_gap = %v, want 0 (gaps injected after the run were counted)", got)
	}
	if got := promValue(t, metrics, "retry_attempts_total"); got == 0 {
		t.Fatal("metrics file holds no retry attempts; the run was not measured")
	}
}
