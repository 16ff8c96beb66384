package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles the test binary as the fleetsim binary for the
// subprocess tests: "worker" is the argv -workers-exec self produces
// (os.Executable() of the in-process coordinator is this binary), and
// "__fleetsim" re-enters the full CLI so a test can SIGKILL a live
// coordinator process. Dispatching on argv rather than an environment
// variable keeps worker grandchildren from inheriting the marker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "worker" || os.Args[1] == "__fleetsim") {
		args := os.Args[1:]
		if args[0] == "__fleetsim" {
			args = args[1:]
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := run(ctx, args, os.Stdout)
		stop()
		if err != nil {
			if !errors.Is(err, errReported) {
				fmt.Fprintln(os.Stderr, "fleetsim:", err)
			}
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distributedSweepArgs is the shared grid for the equivalence tests: a
// 2x2 grid, cheap enough to run four times.
func distributedSweepArgs(extra ...string) []string {
	args := []string{"sweep", "-base", "fame-clear", "-n", "20,24", "-t", "0,1",
		"-runs", "3", "-seed", "9", "-format", "json"}
	return append(args, extra...)
}

// TestSweepDistributedMatchesInProcess is the CLI acceptance criterion
// for the fabric: -workers-exec self must emit byte-identical JSON to
// the in-process executor for 1, 2 and 4 subprocess workers.
func TestSweepDistributedMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.json")
	if err := run(context.Background(), distributedSweepArgs("-out", ref), new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2", "4"} {
		t.Run("workers="+workers, func(t *testing.T) {
			out := filepath.Join(dir, "out-"+workers+".json")
			args := distributedSweepArgs("-workers-exec", "self", "-workers", workers, "-out", out)
			if err := run(context.Background(), args, new(bytes.Buffer)); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("distributed sweep JSON differs from in-process JSON:\n--- distributed ---\n%s\n--- in-process ---\n%s", got, want)
			}
		})
	}
}

// TestSweepKillResumeByteIdentical is the checkpoint acceptance
// criterion end to end: a coordinator process SIGKILLed mid-sweep is
// resumed from its journal, replays the completed cells without
// re-running them, and emits JSON byte-identical to an uninterrupted
// run.
func TestSweepKillResumeByteIdentical(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Reference: the same sweep uninterrupted, no fabric involved. Runs
	// is high enough that four serial cells outlive the kill window.
	grid := []string{"sweep", "-base", "fame-clear", "-n", "20,24", "-t", "0,1",
		"-runs", "60", "-seed", "9", "-format", "json"}
	ref := filepath.Join(dir, "ref.json")
	if err := run(context.Background(), append(grid, "-out", ref), new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator subprocess with a journal and one local session (cells
	// complete one at a time, so the journal grows in observable steps).
	ckpt := filepath.Join(dir, "sweep.ckpt")
	out := filepath.Join(dir, "out.json")
	args := append([]string{"__fleetsim"}, append(grid, "-workers", "1", "-checkpoint", ckpt, "-out", out)...)
	cmd := exec.Command(exe, args...)
	var victimLog bytes.Buffer
	cmd.Stderr = &victimLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// SIGKILL as soon as the journal holds a completed cell — mid-sweep
	// by construction, since three more cells are still to run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		blob, _ := os.ReadFile(ckpt)
		if bytes.Contains(blob, []byte(`"type":"cell"`)) {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("journal never received a cell record; coordinator stderr:\n%s", victimLog.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	if n := bytes.Count(mustRead(t, ckpt), []byte(`"type":"cell"`)); n >= 4 {
		t.Fatalf("sweep finished (%d cells journaled) before the kill; nothing left to resume", n)
	}

	// Resume in a fresh process, capturing the replay log line.
	var resumeLog bytes.Buffer
	resume := exec.Command(exe, append(args, "-resume")...)
	resume.Stderr = &resumeLog
	if err := resume.Run(); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, resumeLog.String())
	}
	if !strings.Contains(resumeLog.String(), "replayed from checkpoint") {
		t.Fatalf("resume log does not mention the replay:\n%s", resumeLog.String())
	}
	got := mustRead(t, out)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed sweep JSON differs from uninterrupted JSON:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	// The repaired journal now covers the full grid and a second resume
	// is pure replay: no cells left, same bytes again.
	resumeLog.Reset()
	again := exec.Command(exe, append(args, "-resume")...)
	again.Stderr = &resumeLog
	if err := again.Run(); err != nil {
		t.Fatalf("second resume failed: %v\n%s", err, resumeLog.String())
	}
	if !strings.Contains(resumeLog.String(), "4 of 4 cells replayed") {
		t.Fatalf("second resume should replay every cell:\n%s", resumeLog.String())
	}
	if got := mustRead(t, out); !bytes.Equal(got, want) {
		t.Fatalf("pure-replay JSON differs from reference")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSweepCatalogAdaptive resolves -sweep against the catalog's
// adaptive stanza (cartesian sweeps take precedence, adaptive searches
// are second) with an explicit -runs override.
func TestSweepCatalogAdaptive(t *testing.T) {
	var out bytes.Buffer
	args := []string{"sweep", "-scenarios", fixturePath, "-sweep", "spectrum-threshold",
		"-runs", "2", "-format", "json"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	blob := out.String()
	for _, want := range []string{`"name": "spectrum-threshold"`, `"axis": "c"`, `"runs_per_cell": 2`} {
		if !strings.Contains(blob, want) {
			t.Fatalf("catalog adaptive report missing %s:\n%s", want, blob)
		}
	}
}

func TestFabricFlagRejections(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"sweep", "-base", "fame-clear", "-n", "20", "-resume"},                       // -resume without -checkpoint
		{"sweep", "-scenarios", fixturePath, "-sweep", "spectrum-grid", "-min", "2"},  // adaptive shape flag vs catalog sweep
		{"sweep", "-base", "fame-clear", "-n", "20", "-workers-exec", "/no/such/bin"}, // unspawnable workers fail the sweep
		{"worker", "stray-argument"},                                                  // leases come from the coordinator
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &out); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}
