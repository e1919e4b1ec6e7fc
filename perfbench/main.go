// Command perfbench is the repository's benchmark: it runs one workload
// (pipeline, fleet, gossip or serve) through each layer's public
// functions for a fixed wall-clock window and prints its metrics, ending
// with one JSON line. With -trace 0 it prints the end-to-end metrics; with
// -trace 1 it repeats the window with wall-clock spans recorded around
// every layer call and counters read from a live obs.Registry, and
// prints the per-layer metrics. Run it through run.py, which builds it.
// See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// epoch anchors every virtual clock, as the CLI's does.
var epoch = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

// metricDef is one reported metric; BENCHMARK.json lists the same names
// and units (the self-tests hold the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"throughput", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's table. A layer a workload never calls
// reads 0 there.
var perLayer = []metricDef{
	{"trace.overhead", "ratio"},
	{"op_count", "count"},
	{"tail_ms", "ms"},
	{"val_loss", "loss"},
	{"wire_mb", "MB"},
	{"modelled_round_s", "s-modelled"},
	{"core.collect_ms", "ms"},
	{"core.clean_ms", "ms"},
	{"core.train_ms", "ms"},
	{"core.evaluate_ms", "ms"},
	{"core.train_io_ms", "ms"},
	{"nn.epoch_ms", "ms"},
	{"nn.epochs", "count"},
	{"nn.samples", "count"},
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.optim_ms", "ms"},
	{"nn.loss_ms", "ms"},
	{"nn.val_ms", "ms"},
	{"tub.records", "count"},
	{"tub.marked", "count"},
	{"eval.laps", "count"},
	{"testbed.gpu_s", "s-modelled"},
	{"netem.wan_s", "s-modelled"},
	{"netem.wan_bytes", "bytes"},
	{"fed.newrun_ms", "ms"},
	{"fed.round_ms", "ms"},
	{"fed.participants", "count"},
	{"fed.dropped", "count"},
	{"fed.cut", "count"},
	{"fed.aggregated_share", "ratio"},
	{"fed.bytes_broadcast", "bytes"},
	{"fed.bytes_upload", "bytes"},
	{"fed.bytes_region", "bytes"},
	{"fed.checkpoints", "count"},
	{"edge.evictions", "count"},
	{"faults.retries", "count"},
	{"faults.injected", "count"},
	{"scenario.transitions", "count"},
	{"gossip.newrun_ms", "ms"},
	{"gossip.round_ms", "ms"},
	{"gossip.exchanges", "count"},
	{"gossip.exchange_failures", "count"},
	{"gossip.unreachable", "count"},
	{"gossip.exchange_ok_share", "ratio"},
	{"gossip.parcels_moved", "count"},
	{"gossip.digest_bytes", "bytes"},
	{"gossip.parcel_bytes", "bytes"},
	{"gossip.convergence_lag", "rounds"},
	{"gossip.head_syncs", "count"},
	{"pilot.train_shard_ms", "ms"},
	{"pilot.validate_ms", "ms"},
	{"serve.register_ms", "ms"},
	{"serve.queued_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.batches", "count"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"serve.errors", "count"},
	{"serve.reloads", "count"},
	{"serve.reload_ms", "ms"},
	{"pilot.infer_batch_ms.b1", "ms"},
	{"pilot.infer_batch_ms.b2", "ms"},
	{"serve.window_wait_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
}

// env is what one timed window runs with. rec and reg are nil in the
// untraced window.
type env struct {
	seconds time.Duration
	rec     *recorder
	reg     *obs.Registry
}

// result is one timed window's measurements.
type result struct {
	setup []time.Duration // set-up samples (median reported)
	ops   []time.Duration // wall time of each successful op
	// stretches split the window into a pipeline loop, a fleet or gossip
	// run, or serve's traffic between two checkpoint swaps.
	stretches []stretch
	// medianOp marks a workload whose ops overlap (serve's concurrent
	// requests): op_ms is then the median op of the quiet stretches, not
	// the median of their mean ops.
	medianOp  bool
	attempted int
	failed    int
	// Go heap activity over the timed ops, read in the traced window.
	allocBytes, gcCycles, gcPauseNs uint64
	problems                        []string           // failed correctness checks
	layer                           map[string]float64 // per-layer metrics (traced window)
}

// stretch is one piece of the timed window. op_ms, throughput and
// cpu_ms_per_op are medians over the window's quiet stretches (see
// quiet), not whole-window totals, which every slow stretch would drag.
type stretch struct {
	attempted, failed int
	wall, cpu         time.Duration
	steal             float64         // share of the machine's CPU time the hypervisor took
	ops               []time.Duration // wall time of each successful op
}

// quiet keeps the stretches whose steal share is at most the window's
// median share. The host's other tenants take CPU time from this machine
// in episodes of seconds to minutes, and a stretch inside one runs slower
// however fast the program is. The share does not depend on the program,
// so the choice favours neither side of a comparison; on a machine
// without steal every stretch is kept.
func quiet(sts []stretch) []stretch {
	shares := make([]float64, len(sts))
	for i, st := range sts {
		shares[i] = st.steal
	}
	limit := median(shares)
	var kept []stretch
	for _, st := range sts {
		if st.steal <= limit {
			kept = append(kept, st)
		}
	}
	return kept
}

// fail records a correctness problem.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// sameSeedRuns repeats execute, one same-seed run of a round engine per
// call, until e.seconds have passed (at least once). A run fails, with
// all its rounds, when a round differs from the first run's under same
// or when its rounds fired other than phases scenario transitions. It
// returns every run's rounds and the first run's transition count.
func sameSeedRuns[R any](e env, res *result, phases int, same func(a, b R) bool,
	execute func(op int) ([]R, int, error)) ([][]R, int, error) {
	var runs [][]R
	var transitions int
	begin := time.Now()
	for op := 0; op == 0 || time.Since(begin) < e.seconds; op++ {
		rounds, tr, err := execute(op)
		if err != nil {
			return nil, 0, err
		}
		ok := true
		if tr != phases {
			ok = false
			res.fail("run %d: its rounds fired %d scenario transitions, the file has %d phases", op, tr, phases)
		}
		if op == 0 {
			transitions = tr
		} else if !slices.EqualFunc(runs[0], rounds, same) {
			ok = false
			res.fail("run %d disagrees with run 0 on a round's participants, wire bytes, modelled wall or val loss", op)
		}
		if !ok {
			res.failed += len(rounds)
			last := &res.stretches[len(res.stretches)-1]
			last.failed, last.ops = len(rounds), nil
		}
		runs = append(runs, rounds)
	}
	return runs, transitions, nil
}

// sameFloat is bit equality that also holds for two NaNs.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// bench is one workload whose inputs are already generated.
type bench interface {
	// timed sets up the program, runs warm-up ops, then ops for
	// e.seconds, checking every output.
	timed(e env) (*result, error)
	// probe runs the traced-only measurements after the traced window.
	probe(e env, res *result) error
}

// workloads maps a name to its input generator: each derives every input
// from the seed before any set-up is timed.
var workloads = map[string]func(seed int64, work string) (bench, error){
	"pipeline": newPipelineBench,
	"fleet":    newFleetBench,
	"gossip":   newGossipBench,
	"serve":    newServeBench,
}

// meter brackets timed ops: stop returns the stretch, so a workload that
// sets up between stretches times only its ops.
type meter struct {
	t0            time.Time
	cpu0          time.Duration
	steal0, tick0 uint64
	traced        bool
	mem0          runtime.MemStats
}

// startMeter first collects the garbage set-up left, as testing.B does
// before a benchmark, so the timed ops do not pay for set-up's heap.
func startMeter(traced bool) *meter {
	runtime.GC()
	m := &meter{traced: traced}
	if traced {
		runtime.ReadMemStats(&m.mem0)
	}
	m.steal0, m.tick0 = cpuTicks()
	m.t0, m.cpu0 = time.Now(), cpuTime()
	return m
}

// stop returns the stretch's wall, CPU time and steal share; the caller
// fills in its ops.
func (m *meter) stop(res *result) stretch {
	st := stretch{wall: time.Since(m.t0), cpu: cpuTime() - m.cpu0}
	steal, ticks := cpuTicks()
	st.steal = stealShare(m.steal0, m.tick0, steal, ticks)
	if m.traced {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		res.allocBytes += mem.TotalAlloc - m.mem0.TotalAlloc
		res.gcCycles += uint64(mem.NumGC - m.mem0.NumGC)
		res.gcPauseNs += mem.PauseTotalNs - m.mem0.PauseTotalNs
	}
	return st
}

// cpuTicks reads the machine's stolen and total CPU ticks, summed over
// its CPUs, from /proc/stat; both read 0 where the file is missing.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user. A field that does not parse counts as 0.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func stealShare(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the input generator's memory to the OS and resets
// the kernel's RSS high-water mark (Linux 4.0+), so peak_rss_mb covers
// set-up and ops, not the drives and training runs that made the inputs.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the RSS high-water mark (VmHWM) since the last reset,
// falling back to the process's getrusage peak.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	workload := flag.String("workload", "", "workload: pipeline, fleet, gossip or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed window, seconds")
	trace := flag.Int("trace", 0, "1 runs the traced window and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for work files and span dumps")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, out string) error {
	mk, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	work, err := os.MkdirTemp(out, "work-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	st := machineStamp(work, workload, seed, seconds, traced)
	line, _ := json.Marshal(st)
	fmt.Printf("# stamp %s\n", line)

	b, err := mk(seed, work)
	if err != nil {
		return fmt.Errorf("%s inputs: %w", workload, err)
	}
	if err := resetPeakRSS(); err != nil {
		// Without the reset the figure still compares like with like on
		// one machine; it just includes input generation.
		fmt.Printf("# peak_rss_mb covers the whole process: %v\n", err)
	}
	e := env{seconds: time.Duration(seconds) * time.Second}
	base, err := b.timed(e)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	res, metrics := base, endToEndMetrics(base)
	if traced {
		e.rec, e.reg = newRecorder(), obs.NewRegistry()
		if res, err = b.timed(e); err != nil {
			return fmt.Errorf("%s traced: %w", workload, err)
		}
		if err := b.probe(e, res); err != nil {
			return fmt.Errorf("%s probe: %w", workload, err)
		}
		res.problems = append(base.problems, res.problems...)
		metrics = perLayerMetrics(base, res)
		dump := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
		if err := e.rec.writeJSONL(dump, st); err != nil {
			return err
		}
		fmt.Printf("# spans written to %s\n", dump)
	}
	return report(res, metrics)
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func endToEndMetrics(r *result) map[string]float64 {
	var rate, cpu []float64
	for _, st := range quiet(r.stretches) {
		rate = append(rate, float64(st.attempted-st.failed)/st.wall.Seconds())
		if st.attempted > 0 {
			cpu = append(cpu, msf(st.cpu)/float64(st.attempted))
		}
	}
	return map[string]float64{
		"setup_s":       median(secs(r.setup)),
		"op_ms":         opMS(r),
		"throughput":    median(rate),
		"cpu_ms_per_op": median(cpu),
		"peak_rss_mb":   peakRSSMB(),
	}
}

// perLayerMetrics fills the per-layer table from the traced window,
// defaulting layers the workload never called to 0.
func perLayerMetrics(base, tr *result) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range tr.layer {
		if _, ok := m[k]; !ok {
			panic("perfbench: metric " + k + " is not in the per-layer table")
		}
		m[k] = v
	}
	m["trace.overhead"] = opMS(tr)/opMS(base) - 1
	m["op_count"] = float64(len(tr.ops))
	ops := float64(max(tr.attempted, 1))
	m["go.alloc_mb"] = float64(tr.allocBytes) / 1e6 / ops
	m["go.gc_cycles"] = float64(tr.gcCycles) / ops
	m["go.gc_pause_ms"] = float64(tr.gcPauseNs) / 1e6 / ops
	return m
}

// report prints each metric with its unit and sample count, then the
// result line. A failed correctness check makes the run fail.
func report(r *result, metrics map[string]float64) error {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var window time.Duration
	var shares []float64
	for _, st := range r.stretches {
		window += st.wall
		shares = append(shares, st.steal)
	}
	kept := len(quiet(r.stretches))
	q1, _, q3 := quartiles(ms(r.ops))
	fmt.Printf("# ops: %d attempted, %d failed, %d timed over %.3fs (op_ms quartiles %.4g..%.4g), %d set-ups\n",
		r.attempted, r.failed, len(r.ops), window.Seconds(), q1, q3, len(r.setup))
	fmt.Printf("# stretches: %d, %d kept as quiet; steal share per stretch %.3g\n", len(r.stretches), kept, shares)
	if len(r.ops) <= 64 {
		fmt.Printf("# op_ms samples: %.5g\n", ms(r.ops))
	}
	fmt.Printf("# setup_s samples: %.4g\n", secs(r.setup))
	samples := map[string]string{
		"setup_s":       fmt.Sprintf("(n=%d set-ups)", len(r.setup)),
		"op_ms":         fmt.Sprintf("(median over %d of %d stretches)", kept, len(r.stretches)),
		"throughput":    fmt.Sprintf("(median over %d of %d stretches)", kept, len(r.stretches)),
		"cpu_ms_per_op": fmt.Sprintf("(median over %d of %d stretches)", kept, len(r.stretches)),
	}
	out := map[string]value{}
	for _, k := range names {
		v := metrics[k]
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a failure ranked into the percentile
		}
		if math.IsNaN(v) || math.IsInf(v, -1) {
			v = 0
		}
		out[k] = value{v, units[k]}
		fmt.Printf("# %-26s %14.6g %s %s\n", k, v, units[k], samples[k])
	}
	for _, p := range r.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	correct := len(r.problems) == 0
	failed := r.failed
	if !correct && failed == 0 {
		failed = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(r.attempted, 1), failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d correctness check(s) failed", len(r.problems))
	}
	return nil
}

// opMS is taken over the quiet stretches: their median op when ops
// overlap, and otherwise the median of their mean ops. A fleet or gossip
// run's rounds differ by design (fault phases, rebuild depth), so the
// mean over a run charges each round its share; a pipeline stretch is
// one loop, so there it is the median loop.
func opMS(r *result) float64 {
	var all, per []float64
	for _, st := range quiet(r.stretches) {
		ops := ms(st.ops)
		all = append(all, ops...)
		if len(ops) > 0 {
			var sum float64
			for _, v := range ops {
				sum += v
			}
			per = append(per, sum/float64(len(ops)))
		}
	}
	if r.medianOp {
		return median(all)
	}
	return median(per)
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// stamp is the machine metadata every output carries.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	WorkFS     string `json:"work_fs"`
}

func machineStamp(work, workload string, seed int64, seconds int, traced bool) stamp {
	sha := os.Getenv("PERFBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	return stamp{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     sha,
		WorkFS:     fsType(work),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
