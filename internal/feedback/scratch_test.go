package feedback

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refValidateWitnesses is the map-based witness check that Scratch.validate
// replaced; it stays as the reference for every verdict and error text.
func refValidateWitnesses(witnesses [][]int, n, size int) error {
	seen := make(map[int]int)
	for c, ws := range witnesses {
		if len(ws) != size {
			return fmt.Errorf("%w: channel %d has %d witnesses, want %d",
				ErrBadWitnesses, c, len(ws), size)
		}
		for _, w := range ws {
			if w < 0 || w >= n {
				return fmt.Errorf("%w: witness %d out of range", ErrBadWitnesses, w)
			}
			if prev, dup := seen[w]; dup {
				return fmt.Errorf("%w: node %d witnesses both channel %d and %d",
					ErrBadWitnesses, w, prev, c)
			}
			seen[w] = c
		}
	}
	return nil
}

// TestValidateMatchesMapReference runs random assignments, valid and
// broken in each way, through one reused Scratch and compares the verdict,
// the error text and the membership lookup with the references.
func TestValidateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	verdicts := make(map[string]int)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		size := 1 + rng.Intn(5)
		witnesses := make([][]int, rng.Intn(5))
		perm := rng.Perm(n)
		for c := range witnesses {
			k := size
			if rng.Intn(10) == 0 {
				k = rng.Intn(size + 2) // wrong set size
			}
			ws := make([]int, k)
			for r := range ws {
				switch {
				case rng.Intn(20) == 0:
					ws[r] = rng.Intn(n+4) - 2 // maybe out of range
				case rng.Intn(10) == 0:
					ws[r] = rng.Intn(n) // maybe a repeat
				case len(perm) > 0:
					ws[r], perm = perm[0], perm[1:]
				}
			}
			witnesses[c] = ws
		}
		me := rng.Intn(n)
		channel, rank, err := s.validate(witnesses, n, size, me)
		want := refValidateWitnesses(witnesses, n, size)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("trial %d %v: validate error %v, reference %v", trial, witnesses, err, want)
		}
		switch msg := fmt.Sprint(err); {
		case err == nil:
			verdicts["valid"]++
		case strings.Contains(msg, "want"):
			verdicts["size"]++
		case strings.Contains(msg, "range"):
			verdicts["range"]++
		case strings.Contains(msg, "both"):
			verdicts["repeat"]++
		}
		if err != nil {
			continue
		}
		if wc, wr := membership(witnesses, me); channel != wc || rank != wr {
			t.Fatalf("trial %d: node %d at (%d, %d), reference (%d, %d)", trial, me, channel, rank, wc, wr)
		}
	}
	for _, v := range []string{"valid", "size", "range", "repeat"} {
		if verdicts[v] < 50 {
			t.Fatalf("only %d %s assignments in %v", verdicts[v], v, verdicts)
		}
	}
}

// TestValidateAllocations pins the witness check at zero allocations once
// the node's scratch has seen its first call.
func TestValidateAllocations(t *testing.T) {
	const n, c = 150, 72
	witnesses := [][]int{make([]int, c), make([]int, c)}
	for i := range witnesses[0] {
		witnesses[0][i] = n - 1 - i
		witnesses[1][i] = n - 1 - c - i
	}
	var s Scratch
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := s.validate(witnesses, n, c, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("validate: %v allocs per call after the first, want 0", allocs)
	}
}
