package fabric_test

// Fault determinism across the fabric: a sweep over both fault families
// (churn and Gilbert-Elliott loss) must produce byte-identical JSON for
// every worker count and transport — in-process executor, wire-protocol
// stream workers, and real subprocess workers.
// Fault schedules derive from each cell's seed, never from which worker
// runs the cell, so this is the same equivalence the fault-free suite
// pins, extended to degraded runs.

import (
	"bytes"
	"context"
	"os"
	"testing"

	"securadio/internal/fleet"
	"securadio/internal/fleet/fabric"
)

// TestMain lets the test binary double as a protocol worker: AttachExec
// re-execs it with fabricWorkerEnv set, giving the subprocess leg of the
// determinism matrix without depending on a built fleetsim binary.
func TestMain(m *testing.M) {
	if os.Getenv(fabricWorkerEnv) == "1" {
		fabric.ServeWorker(context.Background(), os.Stdin, os.Stdout)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const fabricWorkerEnv = "SECURADIO_FABRIC_TEST_WORKER"

// faultSweep crosses both fault axes over the clear-spectrum scenario:
// a 2x2 grid with a fault-free corner and a churn+loss corner.
func faultSweep() fleet.Sweep {
	base, ok := fleet.Lookup("fame-clear")
	if !ok {
		panic("fame-clear missing")
	}
	return fleet.Sweep{
		Base:  base,
		Churn: []float64{0, 0.15},
		Loss:  []float64{0, 0.05},
		Runs:  2,
		Seed:  11,
	}
}

// referenceFaultJSON is the single-process executor's bytes for the
// faulted sweep, sanity-checked to actually contain fault degradation.
func referenceFaultJSON(t *testing.T) []byte {
	t.Helper()
	res, err := fleet.RunSweep(context.Background(), faultSweep())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte("degraded_rounds")) {
		t.Fatalf("fault sweep left no degradation counters in the reference JSON:\n%s", blob)
	}
	return blob
}

func TestFaultSweepDeterministicAcrossStreamFabric(t *testing.T) {
	want := referenceFaultJSON(t)
	for _, workers := range []int{1, 8} {
		co := fabric.New(fabric.Config{})
		attachStreamWorkers(t, co, workers)
		res, err := co.RunSweep(context.Background(), faultSweep())
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
			t.Fatalf("%d stream workers: faulted sweep bytes differ from in-process run", workers)
		}
	}
}

func TestFaultSweepDeterministicAcrossExecFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess workers are slow under -short")
	}
	want := referenceFaultJSON(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(fabricWorkerEnv, "1")
	co := fabric.New(fabric.Config{})
	if err := co.AttachExec([]string{exe}, 2); err != nil {
		co.Close()
		t.Fatal(err)
	}
	res, err := co.RunSweep(context.Background(), faultSweep())
	if err != nil {
		co.Close()
		t.Fatal(err)
	}
	got, merr := res.MarshalIndent()
	co.Close()
	if merr != nil {
		t.Fatal(merr)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("subprocess-fabric faulted sweep bytes differ from in-process run")
	}
}
