package fabric_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"securadio/internal/fleet"
	"securadio/internal/fleet/fabric"
)

// testSweep is a cheap 2x2 grid over the clear-spectrum scenario.
func testSweep() fleet.Sweep {
	base, ok := fleet.Lookup("fame-clear")
	if !ok {
		panic("fame-clear missing")
	}
	return fleet.Sweep{
		Base: base,
		N:    []int{20, 24},
		T:    []int{0, 1},
		Runs: 2,
		Seed: 7,
	}
}

func testAdaptive() fleet.AdaptiveSweep {
	base, ok := fleet.Lookup("fame-clear")
	if !ok {
		panic("fame-clear missing")
	}
	return fleet.AdaptiveSweep{
		Base: base, Axis: fleet.AxisC,
		Min: 2, Max: 6, Coarse: 3,
		Runs: 4, Seed: 9,
	}
}

// referenceSweepJSON is the single-process executor's bytes — the
// equivalence target for every fabric topology.
func referenceSweepJSON(t *testing.T) []byte {
	t.Helper()
	res, err := fleet.RunSweep(context.Background(), testSweep())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func referenceAdaptiveJSON(t *testing.T) []byte {
	t.Helper()
	res, err := fleet.RunAdaptiveSweep(context.Background(), testAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// attachStreamWorkers wires n protocol workers to the coordinator over
// in-memory duplex pipes, each served by ServeWorker in its own
// goroutine — the full wire protocol without subprocesses.
func attachStreamWorkers(t *testing.T, co *fabric.Coordinator, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		local, remote := net.Pipe()
		go func() {
			defer remote.Close()
			fabric.ServeWorker(ctx, remote, remote)
		}()
		co.AttachStream(fmt.Sprintf("stream-%d", i+1), local, local, local)
	}
}

func TestLocalFabricMatchesInProcess(t *testing.T) {
	want := referenceSweepJSON(t)
	co := fabric.New(fabric.Config{})
	defer co.Close()
	co.AttachLocal(2)
	res, err := co.RunSweep(context.Background(), testSweep())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("local fabric bytes differ from in-process bytes:\n--- fabric ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

func TestStreamFabricMatchesAcrossWorkers(t *testing.T) {
	want := referenceSweepJSON(t)
	for _, workers := range []int{1, 2, 4} {
		co := fabric.New(fabric.Config{})
		attachStreamWorkers(t, co, workers)
		res, err := co.RunSweep(context.Background(), testSweep())
		if err != nil {
			co.Close()
			t.Fatalf("workers %d: %v", workers, err)
		}
		got, merr := res.MarshalIndent()
		co.Close()
		if merr != nil {
			t.Fatal(merr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d stream workers: bytes differ from in-process run", workers)
		}
	}
}

// TestTCPFabricMatchesInProcess drives the real TCP topology — the one
// fleetsim sweep -listen / fleetsim worker -connect wire up.
func TestTCPFabricMatchesInProcess(t *testing.T) {
	want := referenceSweepJSON(t)
	co := fabric.New(fabric.Config{})
	defer co.Close()
	addr, err := co.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < 2; i++ {
		go fabric.DialWorker(ctx, addr.String())
	}
	res, err := co.RunSweep(context.Background(), testSweep())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("TCP fabric bytes differ from in-process bytes:\n--- fabric ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

func TestAdaptiveFabricMatchesInProcess(t *testing.T) {
	want := referenceAdaptiveJSON(t)
	co := fabric.New(fabric.Config{})
	defer co.Close()
	attachStreamWorkers(t, co, 2)
	res, err := co.RunAdaptiveSweep(context.Background(), testAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("adaptive fabric bytes differ from in-process bytes:\n--- fabric ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

// journalLines reads a checkpoint and splits it into newline-terminated
// records.
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimSuffix(string(blob), "\n")
	if trimmed == "" {
		return nil
	}
	return strings.Split(trimmed, "\n")
}

func TestCheckpointResumeCompletesWithoutRerunning(t *testing.T) {
	want := referenceSweepJSON(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")

	// Full run with a journal.
	co := fabric.New(fabric.Config{Checkpoint: ckpt})
	co.AttachLocal(2)
	if _, err := co.RunSweep(context.Background(), testSweep()); err != nil {
		t.Fatal(err)
	}
	co.Close()

	lines := journalLines(t, ckpt)
	if len(lines) != 1+4 {
		t.Fatalf("journal has %d records, want header + 4 cells", len(lines))
	}

	// Amputate the journal to header + 2 cells — the on-disk state of a
	// sweep killed halfway — and resume.
	half := strings.Join(lines[:3], "\n") + "\n"
	if err := os.WriteFile(ckpt, []byte(half), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	co = fabric.New(fabric.Config{Checkpoint: ckpt, Resume: true, Log: &log})
	defer co.Close()
	co.AttachLocal(2)
	res, err := co.RunSweep(context.Background(), testSweep())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed bytes differ from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	if !strings.Contains(log.String(), "2 of 4 cells replayed") {
		t.Fatalf("resume log missing replay line:\n%s", log.String())
	}
	// The resumed journal holds exactly the remaining cells: no finished
	// cell ran (or journaled) twice.
	lines = journalLines(t, ckpt)
	if len(lines) != 1+4 {
		t.Fatalf("resumed journal has %d records, want header + 4 cells", len(lines))
	}
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		if seen[line] {
			t.Fatalf("journal holds a duplicate record: %s", line)
		}
		seen[line] = true
	}
}

func TestCheckpointResumeAdaptive(t *testing.T) {
	want := referenceAdaptiveJSON(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "adaptive.ckpt")

	co := fabric.New(fabric.Config{Checkpoint: ckpt})
	co.AttachLocal(2)
	if _, err := co.RunAdaptiveSweep(context.Background(), testAdaptive()); err != nil {
		t.Fatal(err)
	}
	co.Close()

	lines := journalLines(t, ckpt)
	if len(lines) < 3 {
		t.Fatalf("journal has only %d records", len(lines))
	}
	half := strings.Join(lines[:len(lines)/2+1], "\n") + "\n"
	if err := os.WriteFile(ckpt, []byte(half), 0o644); err != nil {
		t.Fatal(err)
	}
	co = fabric.New(fabric.Config{Checkpoint: ckpt, Resume: true})
	defer co.Close()
	co.AttachLocal(2)
	res, err := co.RunAdaptiveSweep(context.Background(), testAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed adaptive bytes differ from uninterrupted run")
	}
}

func TestCheckpointRefusesOverwrite(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	if err := os.WriteFile(ckpt, []byte("precious results\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	co := fabric.New(fabric.Config{Checkpoint: ckpt})
	defer co.Close()
	co.AttachLocal(1)
	_, err := co.RunSweep(context.Background(), testSweep())
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("err = %v, want refusal to overwrite", err)
	}
}

func TestCheckpointRefusesDifferentSweep(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	co := fabric.New(fabric.Config{Checkpoint: ckpt})
	co.AttachLocal(2)
	if _, err := co.RunSweep(context.Background(), testSweep()); err != nil {
		t.Fatal(err)
	}
	co.Close()

	other := testSweep()
	other.Seed = 8
	co = fabric.New(fabric.Config{Checkpoint: ckpt, Resume: true})
	defer co.Close()
	co.AttachLocal(1)
	_, err := co.RunSweep(context.Background(), other)
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}
}

func TestCheckpointRejectsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	co := fabric.New(fabric.Config{Checkpoint: ckpt})
	co.AttachLocal(2)
	if _, err := co.RunSweep(context.Background(), testSweep()); err != nil {
		t.Fatal(err)
	}
	co.Close()
	lines := journalLines(t, ckpt)

	resume := func(t *testing.T, content string) error {
		t.Helper()
		path := filepath.Join(t.TempDir(), "corrupt.ckpt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		co := fabric.New(fabric.Config{Checkpoint: path, Resume: true})
		defer co.Close()
		co.AttachLocal(1)
		_, err := co.RunSweep(context.Background(), testSweep())
		return err
	}

	t.Run("garbage record", func(t *testing.T) {
		content := lines[0] + "\n" + "{not json}\n" + lines[2] + "\n"
		err := resume(t, content)
		if err == nil || !strings.Contains(err.Error(), "record 2 at offset") {
			t.Fatalf("err = %v, want record/offset diagnosis", err)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		rec := strings.Replace(lines[1], `"type":"cell"`, `"type":"cell","extra":1`, 1)
		err := resume(t, lines[0]+"\n"+rec+"\n")
		if err == nil || !strings.Contains(err.Error(), "record 2 at offset") {
			t.Fatalf("err = %v, want record/offset diagnosis", err)
		}
	})
	t.Run("unknown record type", func(t *testing.T) {
		rec := strings.Replace(lines[1], `"type":"cell"`, `"type":"blob"`, 1)
		err := resume(t, lines[0]+"\n"+rec+"\n")
		if err == nil || !strings.Contains(err.Error(), `unknown record type "blob"`) {
			t.Fatalf("err = %v, want unknown-type diagnosis", err)
		}
	})
	t.Run("conflicting duplicate", func(t *testing.T) {
		conflict := strings.Replace(lines[1], `"runs":2`, `"runs":1`, 1)
		if conflict == lines[1] {
			t.Fatal("fixture: could not derive a conflicting record")
		}
		err := resume(t, lines[0]+"\n"+lines[1]+"\n"+conflict+"\n")
		if err == nil || !strings.Contains(err.Error(), "conflicting records") {
			t.Fatalf("err = %v, want conflict diagnosis", err)
		}
	})
	t.Run("missing header", func(t *testing.T) {
		err := resume(t, lines[1]+"\n")
		if err == nil || !strings.Contains(err.Error(), "first record has type") {
			t.Fatalf("err = %v, want header diagnosis", err)
		}
	})
}

func TestCheckpointDiscardsPartialTail(t *testing.T) {
	want := referenceSweepJSON(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	co := fabric.New(fabric.Config{Checkpoint: ckpt})
	co.AttachLocal(2)
	if _, err := co.RunSweep(context.Background(), testSweep()); err != nil {
		t.Fatal(err)
	}
	co.Close()
	lines := journalLines(t, ckpt)

	// A SIGKILL mid-append leaves an unterminated final line; the loader
	// must warn, discard it, and re-run that cell.
	content := strings.Join(lines[:3], "\n") + "\n" + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(ckpt, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	co = fabric.New(fabric.Config{Checkpoint: ckpt, Resume: true, Log: &log})
	defer co.Close()
	co.AttachLocal(2)
	res, err := co.RunSweep(context.Background(), testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "discarding partial final record") {
		t.Fatalf("resume log missing partial-tail warning:\n%s", log.String())
	}
	got, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed bytes differ from uninterrupted run after partial-tail discard")
	}
	// The rewritten journal must be fully valid again.
	lines = journalLines(t, ckpt)
	if len(lines) != 1+4 {
		t.Fatalf("repaired journal has %d records, want header + 4 cells", len(lines))
	}
}

// TestLeaseExpiryReissues pins the crashed/hung-worker path: a worker
// that accepts leases and never answers must only delay its cells, not
// lose them.
func TestLeaseExpiryReissues(t *testing.T) {
	want := referenceSweepJSON(t)
	var log bytes.Buffer
	co := fabric.New(fabric.Config{LeaseTimeout: 200 * time.Millisecond, Log: &log})
	defer co.Close()

	// The hung worker: says hello, swallows every lease, never replies.
	local, remote := net.Pipe()
	go func() {
		remote.Write([]byte(`{"v":1,"type":"hello","id":0}` + "\n"))
		io.Copy(io.Discard, remote)
	}()
	co.AttachStream("hung", local, local, local)
	co.AttachLocal(1)

	res, err := co.RunSweep(context.Background(), testSweep())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes differ from in-process run after lease re-issue")
	}
	if co.Reissues() == 0 {
		t.Fatalf("no lease was re-issued; log:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "expired") {
		t.Fatalf("log missing expiry line:\n%s", log.String())
	}
}

func TestNoWorkersIsAnError(t *testing.T) {
	co := fabric.New(fabric.Config{})
	defer co.Close()
	_, err := co.RunSweep(context.Background(), testSweep())
	if err == nil || !strings.Contains(err.Error(), "no workers") {
		t.Fatalf("err = %v, want no-workers error", err)
	}
}

// TestWorkerCrashMidLease pins session-loss handling: a worker whose
// connection drops mid-lease retires, its cell re-enters the queue, and
// the sweep still completes on the survivors.
func TestWorkerCrashMidLease(t *testing.T) {
	want := referenceSweepJSON(t)
	var log bytes.Buffer
	co := fabric.New(fabric.Config{Log: &log})
	defer co.Close()

	local, remote := net.Pipe()
	go func() {
		remote.Write([]byte(`{"v":1,"type":"hello","id":0}` + "\n"))
		buf := make([]byte, 1)
		remote.Read(buf) // wait for the first lease byte...
		remote.Close()   // ...then die
	}()
	co.AttachStream("crasher", local, local, local)
	co.AttachLocal(1)

	res, err := co.RunSweep(context.Background(), testSweep())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes differ from in-process run after worker crash")
	}
	if !strings.Contains(log.String(), "worker crasher lost") {
		t.Fatalf("log missing worker-lost line:\n%s", log.String())
	}
}

func TestAllWorkersLostIsFatal(t *testing.T) {
	co := fabric.New(fabric.Config{})
	defer co.Close()
	local, remote := net.Pipe()
	go func() {
		remote.Write([]byte(`{"v":1,"type":"hello","id":0}` + "\n"))
		buf := make([]byte, 1)
		remote.Read(buf)
		remote.Close()
	}()
	co.AttachStream("only", local, local, local)
	_, err := co.RunSweep(context.Background(), testSweep())
	if err == nil || !strings.Contains(err.Error(), "all workers lost") {
		t.Fatalf("err = %v, want all-workers-lost error", err)
	}
}
