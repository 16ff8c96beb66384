package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	securadio "securadio"
)

// TestMain lets the test binary serve as its own fabric worker and
// service server, as the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "fabric-worker":
			os.Exit(fabricWorker())
		case "service-server":
			os.Exit(serviceServer())
		case "fake-workload":
			os.Exit(fakeWorkload(os.Args[2:]))
		}
	}
	os.Exit(m.Run())
}

// tinyConfig sizes every workload down to a smoke test.
func tinyConfig(t *testing.T, window time.Duration) *config {
	t.Helper()
	return &config{
		seed: 1, window: window, tiny: true,
		exe:    os.Args[0],
		stderr: os.Stderr,
	}
}

// atGOMAXPROCS runs the rest of the test at the GOMAXPROCS the benchmark
// gives w.
func atGOMAXPROCS(t *testing.T, w workload) {
	prev := runtime.GOMAXPROCS(w.gomaxprocs())
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{20, 50, 10}, {21, 50, 11}, {200, 95, 190}, {201, 95, 191}, {1000, 95, 950}, {1000, 99, 990},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%v of 1..%d = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
	// Fewer than ten samples beyond the rank: refused, not guessed.
	for _, tc := range []struct {
		n int
		p float64
	}{{19, 50}, {199, 95}, {0, 50}, {999, 99}} {
		if _, err := percentile(seq(tc.n), tc.p); !errors.Is(err, errFewSamples) {
			t.Errorf("p%v of %d samples: err %v, want errFewSamples", tc.p, tc.n, err)
		}
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("p%v accepted", p)
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	s := make([]float64, 250)
	for i := range s {
		s[i] = float64(250 - i) // unsorted input
	}
	d, err := summarize(s)
	if err != nil || d.N != 250 || d.P50 != 125 || d.P95 != 238 {
		t.Fatalf("summarize = %+v, %v; want n=250 p50=125 p95=238", d, err)
	}
	if s[0] != 250 {
		t.Fatal("summarize reordered its input")
	}
	if d, err := summarize(s[:150]); !errors.Is(err, errFewSamples) || d.N != 150 {
		t.Fatalf("summarize of 150 samples = %+v, %v; want the count and errFewSamples", d, err)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the same
// workloads in the same order, and every metric the program prints listed
// with its unit.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	if spec.EndToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s must come first")
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s %s, program has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > spec.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v exceeds setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s %s, program has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload at its tiny size: no op may fail
// and every output check must pass.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			atGOMAXPROCS(t, w)
			cfg := tinyConfig(t, 300*time.Millisecond)
			inst, err := w.setup(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			m, err := inst.measure(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if m.ops == 0 || m.failed != 0 || len(m.problems) != 0 || len(m.latencies) == 0 || m.runs == 0 {
				t.Fatalf("ops=%d failed=%d samples=%d runs=%d problems=%q", m.ops, m.failed, len(m.latencies), m.runs, m.problems)
			}
		})
	}
}

// TestTracedEqualsUntraced runs every workload's traced pass: the ledger
// re-runs each simulation untraced and fails on any difference, so the
// wrappers are transparent; every per-layer metric must be present.
func TestTracedEqualsUntraced(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			atGOMAXPROCS(t, w)
			window := 300 * time.Millisecond
			if w.name == "service" {
				window = 2 * time.Second // the open loop needs 20 jobs for its medians
			}
			cfg := tinyConfig(t, window)
			inst, err := w.setup(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			m := metricSet{}
			tl, err := inst.layers(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			if tl.failed != 0 || len(tl.problems) != 0 {
				t.Fatalf("failed=%d problems=%q", tl.failed, tl.problems)
			}
			if err := m.complete(perLayer); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExchangeOverUDPEqualsNative: the exchange-udp workload's outputs are
// exchange's outputs.
func TestExchangeOverUDPEqualsNative(t *testing.T) {
	udp, err := securadio.NewUDPTransport(securadio.UDPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		op := makeExchangeOp(1, i)
		a, err1 := runExchange(ctx, op, nil)
		b, err2 := runExchange(ctx, op, udp)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if formatReport(a) != formatReport(b) {
			t.Fatalf("op %d: native %s\nudp %s", i, formatReport(a), formatReport(b))
		}
	}
}

// TestFabricMatchesInProcess: a sweep through the fabric and its workers
// is the same bytes as the in-process RunSweep.
func TestFabricMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(t, time.Second)
	sw := fabricSweep(cfg.seed, 3, true)
	fr, err := runFabric(ctx, cfg, sw)
	if err != nil {
		t.Fatal(err)
	}
	in, err := securadio.RunSweep(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	a, err1 := fr.res.MarshalIndent()
	b, err2 := in.MarshalIndent()
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("fabric report\n%s\nin-process report\n%s", a, b)
	}
	if len(fr.rtts) != len(in.Cells) || fr.reissues != 0 {
		t.Fatalf("%d round trips for %d cells, %d re-issues", len(fr.rtts), len(in.Cells), fr.reissues)
	}
}

// TestServiceReportsMatchOneShot: every job report the service stores is
// the bytes a one-shot campaign writes.
func TestServiceReportsMatchOneShot(t *testing.T) {
	ctx := context.Background()
	inst, err := setupService(ctx, tinyConfig(t, 300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serviceInstance)
	defer s.close()
	var tl tally
	jobs, err := s.openLoop(ctx, 10, 50, 1, &tl)
	if err != nil || tl.failed != 0 || len(jobs) == 0 {
		t.Fatalf("open loop: %d jobs, %+v, %v", len(jobs), tl, err)
	}
	for _, j := range jobs {
		if _, err := s.checkReport(ctx, j); err != nil {
			t.Error(err)
		}
	}
}

// TestLedgerResidual: after clock calibration the corrected layer times
// of a traced exchange add up to the untraced wall time within 10%.
func TestLedgerResidual(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts the timings the ledger calibrates")
	}
	lg, err := runLedger(context.Background(), func(i int) simCase {
		return exchangeCase(makeExchangeOp(1, i), nil)
	}, time.Now().Add(time.Second), minLedgerRuns)
	if err != nil {
		t.Fatal(err)
	}
	m := metricSet{}
	lg.metrics(m)
	if r := m["bench.ledger_residual_frac"].Value; r > 0.10 {
		t.Fatalf("ledger residual %.3f over %d runs, want <= 0.10", r, lg.runs)
	}
	if m["radio.engine_ns_per_node_round"].Value <= 0 || m["core.self_ns_per_node_round"].Value <= 0 || m["adversary.ns_per_round"].Value <= 0 {
		t.Fatalf("a layer self time is not positive: %v", m)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "exchange", "--trace", "2"},
		{"--workload", "exchange", "--seconds", "0"},
		{"--workload", "exchange", "extra"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// fakeWorkload stands in for a benchmark child in TestRunAllKeepsFailedResults:
// "pass" prints a correct result, "fail" an incorrect one and exits 1, as a
// run whose checks failed does, and "crash" exits 1 without a result.
func fakeWorkload(args []string) int {
	fs := flag.NewFlagSet("fake-workload", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	if fs.Parse(args) != nil {
		return 2
	}
	switch *name {
	case "pass":
		fmt.Println(`{"correct":true,"attempted":5,"failed":0,"metrics":{}}`)
		return 0
	case "fail":
		fmt.Println(`{"correct":false,"attempted":5,"failed":2,"metrics":{}}`)
		return 1
	}
	return 1
}

// TestRunAllKeepsFailedResults: --workload all prints the result of a
// child whose checks failed, and exits non-zero for it and for a child
// that printed nothing.
func TestRunAllKeepsFailedResults(t *testing.T) {
	for _, tc := range []struct {
		names []string
		lines []string
		code  int
	}{
		{[]string{"pass", "pass"}, []string{"pass", "pass"}, 0},
		{[]string{"pass", "fail", "crash", "pass"}, []string{"pass", "fail", "pass"}, 1},
	} {
		var out, errOut bytes.Buffer
		code := runAll(context.Background(), os.Args[0], tc.names, []string{"fake-workload"}, &out, &errOut)
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			var r struct {
				Workload string `json:"workload"`
				Result   result `json:"result"`
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			if r.Result.Correct != (r.Workload == "pass") || r.Result.Attempted != 5 {
				t.Errorf("%s: result %+v", r.Workload, r.Result)
			}
			got = append(got, r.Workload)
		}
		if code != tc.code || strings.Join(got, " ") != strings.Join(tc.lines, " ") {
			t.Errorf("runAll(%q) = %d printing %q, want %d printing %q", tc.names, code, got, tc.code, tc.lines)
		}
	}
}

func TestWithoutWorkload(t *testing.T) {
	got := withoutWorkload([]string{"--seed", "2", "--workload", "all", "-workload=x", "--seconds=3"})
	if want := []string{"--seed", "2", "--seconds=3"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("withoutWorkload = %q, want %q", got, want)
	}
}

func TestMetricNamesUnique(t *testing.T) {
	var names []string
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		names = append(names, s.name)
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("metric %s listed twice", names[i])
		}
	}
}
