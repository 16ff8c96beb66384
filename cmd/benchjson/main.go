// Command benchjson runs the repo's headline benchmarks through
// testing.Benchmark and emits a machine-readable JSON report, so the
// performance trajectory can be committed alongside each PR (BENCH_*.json)
// and diffed across revisions without parsing `go test -bench` text.
//
// Usage:
//
//	benchjson                 # run every headline benchmark, JSON on stdout
//	benchjson -bench radio    # substring filter
//	benchjson -label after    # tag the report (e.g. before/after a rewrite)
//	benchjson diff old.json new.json   # compare two reports, exit 1 on regression
//
// The report includes ns/op, B/op, allocs/op and every custom metric the
// benchmarks publish via b.ReportMetric (node-rounds/op, runs/sec, ...).
//
// The diff subcommand aligns two reports by benchmark name and flags a
// regression when a benchmark slows down by more than -threshold
// (fractional, default 0.10), allocates more per op, or vanished from
// the new report; any regression makes the exit status non-zero, so a
// before/after pair gates in CI. Newly added benchmarks are listed but
// never count against the diff.
//
// Every workload is shared with bench_test.go through internal/benchwork,
// so each cell measures exactly what CI smoke-runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"text/tabwriter"

	"securadio/internal/benchwork"
)

// Result is one benchmark's measurements.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	Label      string   `json:"label,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Comment    []string `json:"comment,omitempty"` // free-form prose kept in committed baselines
	Benchmarks []Result `json:"benchmarks"`
}

// benchmark is a named testing.B driver.
type benchmark struct {
	name string
	run  func(b *testing.B)
}

func registry() []benchmark {
	reg := []benchmark{
		{"BenchmarkRadioEngine", benchwork.RadioEngine},
		{"BenchmarkRadioEngine/steady-state", benchwork.RadioSteadyState},
		{"BenchmarkRadioEngine/steady-state-jam", benchwork.RadioSteadyStateJam},
		{"BenchmarkRadioEngine/steady-state-faulted", benchwork.RadioSteadyStateFaulted},
		{"BenchmarkRadioEngine/steady-state-jam-wide", benchwork.RadioSteadyStateJamWide},
		{"BenchmarkRadioEngine/steady-state-faulted-wide", benchwork.RadioSteadyStateFaultedWide},
		{"BenchmarkFAMEBase/E=16/t=1", benchwork.FAMEBase(16)},
		{"BenchmarkRunnerExchange/E=16/t=1", benchwork.RunnerExchange},
		{"BenchmarkFleetCampaign", benchwork.FleetCampaign},
	}
	for _, sz := range benchwork.LargeRegimeSizes {
		reg = append(reg, benchmark{
			fmt.Sprintf("BenchmarkLargeRegime/N=%d/C=%d", sz.N, sz.C),
			benchwork.LargeRegime(sz.N, sz.C),
		})
	}
	return reg
}

// loadReport reads a benchjson report back with the repo's usual JSON
// strictness: unknown fields and trailing data are rejected, so a sweep
// matrix or a hand-edited file fails loudly instead of diffing as zeros.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: trailing data after report", path)
	}
	return &rep, nil
}

// runDiff implements `benchjson diff old.json new.json`: a non-nil error
// means regression (or usage failure) and main exits non-zero.
func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson diff", flag.ContinueOnError)
	fs.SetOutput(out)
	threshold := fs.Float64("threshold", 0.10,
		"tolerated fractional ns/op slowdown before a benchmark counts as regressed")
	allocSlack := fs.Int64("allocs", 0,
		"tolerated absolute allocs/op increase; single-run benchmarks amortize their "+
			"O(N) setup over an iteration count that varies with machine speed, so "+
			"cross-machine diffs need a small absolute slack (same-machine diffs keep 0)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *threshold < 0 {
		return fmt.Errorf("-threshold %v, want a non-negative fraction", *threshold)
	}
	if *allocSlack < 0 {
		return fmt.Errorf("-allocs %v, want a non-negative count", *allocSlack)
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchjson diff [-threshold 0.10] [-allocs 0] old.json new.json")
	}
	oldRep, err := loadReport(fs.Arg(0))
	if err != nil {
		return err
	}
	newRep, err := loadReport(fs.Arg(1))
	if err != nil {
		return err
	}

	byName := make(map[string]Result, len(newRep.Benchmarks))
	for _, r := range newRep.Benchmarks {
		byName[r.Name] = r
	}

	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\tallocs/op\tverdict")
	regressed := 0
	for _, o := range oldRep.Benchmarks {
		n, ok := byName[o.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t%.1f\t-\t-\t-\tVANISHED\n", o.Name, o.NsPerOp)
			regressed++
			continue
		}
		delete(byName, o.Name)
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		verdict := "ok"
		if delta > *threshold {
			verdict = "SLOWER"
		}
		if n.AllocsPerOp > o.AllocsPerOp+*allocSlack {
			if verdict == "ok" {
				verdict = "MORE ALLOCS"
			} else {
				verdict += "+ALLOCS"
			}
		}
		if verdict != "ok" {
			regressed++
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%+.1f%%\t%d -> %d\t%s\n",
			o.Name, o.NsPerOp, n.NsPerOp, delta*100, o.AllocsPerOp, n.AllocsPerOp, verdict)
	}
	// Whatever is left in byName is new in the second report — informational.
	for _, r := range newRep.Benchmarks {
		if _, isNew := byName[r.Name]; isNew {
			fmt.Fprintf(tw, "%s\t-\t%.1f\t-\t%d\tadded\n", r.Name, r.NsPerOp, r.AllocsPerOp)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d benchmark regression(s) beyond threshold %+.0f%%", regressed, *threshold*100)
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		if err := runDiff(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	var (
		filter = flag.String("bench", "", "substring filter on benchmark names")
		label  = flag.String("label", "", "free-form label recorded in the report")
		list   = flag.Bool("list", false, "list benchmark names and exit")
	)
	flag.Parse()

	reg := registry()
	if *list {
		for _, bm := range reg {
			fmt.Println(bm.name)
		}
		return
	}

	rep := Report{
		Label:      *label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range reg {
		if *filter != "" && !strings.Contains(bm.name, *filter) {
			continue
		}
		r := testing.Benchmark(bm.run)
		res := Result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = r.Extra
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks matched %q\n", *filter)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
