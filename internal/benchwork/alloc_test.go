package benchwork

import "testing"

// TestSteadyStateZeroAllocs turns the steady-state benchmarks into a hard
// assertion: the round loop must not allocate — with the fault layer
// disabled (the historical 0 allocs/op guarantee) and with an active
// churn+loss plan (the fault layer's own budget).
func TestSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed assertion skipped in -short mode")
	}
	for _, tc := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"disabled", RadioSteadyState},
		{"jam", RadioSteadyStateJam},
		{"faulted", RadioSteadyStateFaulted},
		// The wide cells assert the same budget past 64 channels, where
		// the adversary clip and the fault masks use several words of
		// their pooled bitsets.
		{"jam-wide", RadioSteadyStateJamWide},
		{"faulted-wide", RadioSteadyStateFaultedWide},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(tc.fn)
			if res.AllocsPerOp() != 0 {
				t.Fatalf("steady-state round loop allocates: %d allocs/op (%d bytes/op)",
					res.AllocsPerOp(), res.AllocedBytesPerOp())
			}
		})
	}
}
