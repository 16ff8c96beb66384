package fleet

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata (sweep renderers, scenario digests)")

// renderFixture is the pinned sweep for the renderer goldens: a 2x2 grid
// with one axis value whose cells are model-rejected, so both the matrix
// rows and the skipped-cells section are exercised. Wall-clock fields are
// zeroed — they are the only nondeterministic part of the table output.
func renderFixture(t *testing.T) *SweepResult {
	t.Helper()
	res, err := RunSweep(context.Background(), Sweep{
		Base:      fastScenario(),
		C:         []int{2, 1},
		Adversary: []string{"none", "jam"},
		Runs:      4,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Elapsed, res.RunsPerSec = 0, 0
	return res
}

// checkGolden compares rendered output against a golden file; the JSON
// renderer has been golden-pinned since PR 4 via the CI sweep smoke, this
// extends the same protection to CSV and table output.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to capture): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s output changed; rerun with -update if intentional.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestSweepCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	renderFixture(t).WriteCSV(&buf)
	checkGolden(t, "sweep_csv.golden", buf.Bytes())
}

func TestSweepTableGolden(t *testing.T) {
	var buf bytes.Buffer
	renderFixture(t).WriteTable(&buf)
	checkGolden(t, "sweep_table.golden", buf.Bytes())
}
