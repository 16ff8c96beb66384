// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Eight workloads drive the public entry points — the Runner,
// RunCampaign, the fabric Coordinator with a self-exec'd worker and the
// campaign service over loopback HTTP — for a fixed measuring window, check
// every output, and print the metrics as one JSON object on the last line
// of standard output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// it carries the per-layer ledger instead (see ledger.go). --workload all
// runs every workload in its own child process and prints one line each.
// README.md defines every workload and metric.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "fabric-worker":
			os.Exit(fabricWorker())
		case "service-server":
			os.Exit(serviceServer())
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec names one metric and its unit; BENCHMARK.json lists the same
// names (a test keeps the two in step).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the ledger, reported by every workload with --trace 1. A
// layer a workload does not exercise reads 0; layers that only some
// workloads have are given as fractions or counts, so that every time
// metric is a measured, non-zero time on every workload.
var perLayer = []metricSpec{
	{"ledger.runs", "count"},
	{"ledger.run_us", "us"},
	{"radio.node_rounds_per_run", "count"},
	{"radio.rounds_per_run", "count"},
	{"radio.engine_ns_per_node_round", "ns"},
	{"core.self_ns_per_node_round", "ns"},
	{"core.game_moves_per_run", "count"},
	{"outcome.delivery_rate", "frac"},
	{"adversary.ns_per_round", "ns"},
	{"adversary.tx_per_round", "count"},
	{"groupkey.self_frac", "frac"},
	{"groupkey.agreed_frac", "frac"},
	{"secure.self_frac", "frac"},
	{"transport.self_frac", "frac"},
	{"transport.commits_per_run", "count"},
	{"transport.drops_per_run", "count"},
	{"alloc.objects_per_run", "count"},
	{"alloc.kb_per_run", "KiB"},
	{"bench.boundary_ns", "ns"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.ledger_residual_frac", "frac"},
	{"fleet.overhead_frac", "frac"},
	{"fabric.overhead_frac", "frac"},
	{"fabric.wire_kb_per_cell", "KiB"},
	{"fabric.reissues", "count"},
	{"service.queue_wait_frac", "frac"},
	{"service.exec_overhead_frac", "frac"},
	{"service.submit_rtt_frac", "frac"},
	{"service.stalled_exec_ratio", "ratio"},
	{"service.gen_late_frac", "frac"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if s.name == name {
				m[name] = metric{Value: v, Unit: s.unit}
				return
			}
		}
	}
	panic("perfbench: unregistered metric " + name)
}

// complete reports the first metric of specs that is missing or not a
// finite number.
func (m metricSet) complete(specs []metricSpec) error {
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			return fmt.Errorf("metric %s missing", s.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s = %v", s.name, v.Value)
		}
	}
	return nil
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is what one benchmark run is set up with. Every simulation slot
// is one: campaigns run with one worker, the fabric with one worker
// process, the service server with one lane at GOMAXPROCS=1.
type config struct {
	seed   int64
	window time.Duration // measuring window
	tiny   bool          // smoke-test sizes
	exe    string        // this binary, started again as fabric worker and service server
	stderr io.Writer
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name, why string
	// barrier runs the workload at GOMAXPROCS=nproc, the library's
	// default, where the radio engine uses its barrier drive mode. The
	// others run at GOMAXPROCS=1, the pump drive mode.
	barrier bool
	setup   func(ctx context.Context, cfg *config) (instance, error)
}

func (w workload) gomaxprocs() int {
	if w.barrier {
		return runtime.NumCPU()
	}
	return 1
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure drives ops until the window has passed and checks them.
	measure(ctx context.Context) (*measurement, error)
	// layers is the traced run: the ledger over the workload's own
	// simulations plus the layers above them, written into m.
	layers(ctx context.Context, m metricSet) (*tally, error)
	close()
}

// tally counts ops and the checks they failed.
type tally struct {
	ops, failed int
	problems    []string
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// measurement is an untraced run's raw data.
type measurement struct {
	tally
	latencies []float64 // ms, one per op (per simulation run for campaigns, per cell for the sweep)
	runs      int       // simulation runs completed
	wall      time.Duration
	digest    string // over a fixed prefix of the outputs
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 11

// execute sets the workload up setupReps times, keeps the last instance
// and measures it (or traces it). The instance is closed before the peak
// RSS is read, so that it covers the processes the workload started.
func execute(ctx context.Context, w workload, cfg *config, traced bool) (*result, error) {
	var (
		inst   instance
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		in, err := w.setup(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			in.close()
			continue
		}
		inst = in
	}

	res := &result{Metrics: metricSet{}}
	var t *tally
	if traced {
		var err error
		t, err = inst.layers(ctx, res.Metrics)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: trace: %w", w.name, err)
		}
		if err := res.Metrics.complete(perLayer); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	} else {
		m, err := inst.measure(ctx)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lat, err := summarize(m.latencies)
		if err != nil {
			return nil, fmt.Errorf("%s: latency: %w", w.name, err)
		}
		res.Metrics.set("setup_s", median(setups))
		res.Metrics.set("runs_per_s", float64(m.runs)/m.wall.Seconds())
		res.Metrics.set("latency_p50_ms", lat.P50)
		res.Metrics.set("latency_p95_ms", lat.P95)
		res.Metrics.set("peak_rss_mb", peakRSSMB())
		if err := res.Metrics.complete(endToEnd); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintf(cfg.stderr, "perfbench: %s: %d latency samples, %d runs in %v, setup reps %.4f s, digest %s\n",
			w.name, lat.N, m.runs, m.wall.Round(time.Millisecond), setups, m.digest)
		t = &m.tally
	}
	res.Attempted, res.Failed = t.ops, t.failed
	res.Correct = t.failed == 0 && len(t.problems) == 0 && t.ops > 0
	for _, p := range t.problems {
		fmt.Fprintf(cfg.stderr, "perfbench: %s: CHECK FAILED: %s\n", w.name, p)
	}
	return res, nil
}

// peakRSSMB is the largest peak resident set (VmHWM), in MiB, of this
// process and of the fabric workers and service servers it has started and
// waited for. RUSAGE_CHILDREN would not do: it also counts what the process
// that exec'd this one waited for, such as the build.
func peakRSSMB() float64 {
	var self syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		return math.NaN()
	}
	children.Lock()
	defer children.Unlock()
	return float64(max(self.Maxrss, children.peakKB)) / 1024 // Linux reports KiB
}

// children tracks the peak RSS of the processes waitOrKill has reaped.
var children struct {
	sync.Mutex
	peakKB int64
}

// waitOrKill waits for a child the benchmark has told to exit, kills it
// if it lingers, and folds its peak RSS into children.
func waitOrKill(cmd *exec.Cmd) {
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		children.Lock()
		children.peakKB = max(children.peakKB, ru.Maxrss)
		children.Unlock()
	}
}

// driveMode names the radio engine's drive mode at the current
// GOMAXPROCS.
func driveMode() string {
	if runtime.GOMAXPROCS(0) == 1 {
		return "pump"
	}
	return "barrier"
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "measuring window of one run, in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w, ok := lookup(*name)
	if !ok && *name != "all" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name == "all" {
		var names []string
		for _, w := range workloads() {
			names = append(names, w.name)
		}
		return runAll(ctx, exe, names, args, stdout, stderr)
	}
	cfg := &config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		exe:    exe,
		stderr: stderr,
	}
	runtime.GOMAXPROCS(w.gomaxprocs())
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%v trace=%d nproc=%d gomaxprocs=%d go=%s drive=%s\n",
		w.name, cfg.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), driveMode())
	res, err := execute(ctx, w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tw := tabwriter.NewWriter(stderr, 2, 8, 2, ' ', 0)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	tw.Flush()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs each named workload in a child process of its own, exe with
// args and --workload set to the name, so each reports its own peak RSS.
// It prints one line per result a child printed, {"workload": ...,
// "result": ...}, failed checks included, and returns 1 if any child
// exited non-zero, printed no result or reported an incorrect one.
func runAll(ctx context.Context, exe string, names, args []string, stdout, stderr io.Writer) int {
	status := 0
	for _, name := range names {
		childArgs := append(withoutWorkload(args), "--workload", name)
		cmd := exec.CommandContext(ctx, exe, childArgs...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		var res result
		jerr := json.Unmarshal(lastLine(out), &res)
		if err != nil || jerr != nil || !res.Correct {
			status = 1
		}
		if err != nil || jerr != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, errors.Join(err, jerr))
		}
		if jerr != nil {
			continue
		}
		line, _ := json.Marshal(struct {
			Workload string  `json:"workload"`
			Result   *result `json:"result"`
		}{name, &res})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return status
}

// withoutWorkload drops the --workload flag (and its value) from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		switch a := strings.TrimPrefix(args[i], "-"); {
		case a == "-workload" || a == "workload":
			i++
		case strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "workload="):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
