package fleet

import (
	"context"
	"encoding/json"
	"testing"

	"securadio/internal/transport/udp"
)

// conformanceScenarios names one registry scenario per protocol layer,
// so the cross-transport matrix exercises every execute path: surrogate
// f-AME, the Section 5.6 compact variant, the direct-mode baseline,
// Section 6 group key, and the full Section 7 stack.
var conformanceScenarios = []struct {
	name  string
	proto string
}{
	{"fame-jam", ProtoFame},
	{"compact-replay", ProtoFameCompact},
	{"direct-sweep", ProtoFameDirect},
	{"groupkey-jam", ProtoGroupKey},
	{"securegroup-hop", ProtoSecureGroup},
}

// conformanceResult renders a RunResult for equality comparison,
// normalizing out Elapsed — the one legitimately nondeterministic
// field.
func conformanceResult(r RunResult) string {
	r.Elapsed = 0
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestCrossTransportConformance is the headline suite of the transport
// seam: every protocol layer must produce the exact RunResult over
// loopback UDP that it produces in memory — same schema, same values, for
// the same seed. A lossless transport is an implementation detail the
// protocols cannot observe.
func TestCrossTransportConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("binds sockets per cell")
	}
	const seed = 11
	ctx := context.Background()
	for _, sc := range conformanceScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			scen, ok := Lookup(sc.name)
			if !ok {
				t.Fatalf("%s not registered", sc.name)
			}
			if scen.Proto != sc.proto {
				t.Fatalf("%s is proto %s, want %s", sc.name, scen.Proto, sc.proto)
			}

			baseline := conformanceResult(scen.Execute(ctx, 0, seed))
			for _, transport := range []string{"mem", "udp"} {
				cell := scen
				if transport == "udp" {
					tr, err := udp.New(udp.Config{})
					if err != nil {
						t.Fatal(err)
					}
					cell.Transport = tr
				}
				got := conformanceResult(cell.Execute(ctx, 0, seed))
				if got != baseline {
					t.Errorf("%s diverged from baseline:\n  baseline: %s\n  got:      %s",
						transport, baseline, got)
				}
			}
		})
	}
}

// TestConformanceLossBands pins the degraded cell of the matrix:
// injected socket loss must keep the report schema intact (no run
// failure, attempted count unchanged), surface in the degradation
// counters, stay inside a sane delivery band, and reproduce exactly
// across invocations.
func TestConformanceLossBands(t *testing.T) {
	if testing.Short() {
		t.Skip("binds sockets per cell")
	}
	const seed = 11
	ctx := context.Background()
	scen, ok := Lookup("fame-clear")
	if !ok {
		t.Fatal("fame-clear not registered")
	}
	baseline := scen.Execute(ctx, 0, seed)
	if baseline.Err != "" {
		t.Fatalf("baseline failed: %s", baseline.Err)
	}

	lossy := func() RunResult {
		tr, err := udp.New(udp.Config{Loss: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		cell := scen
		cell.Transport = tr
		return cell.Execute(ctx, 0, seed)
	}
	got := lossy()
	if got.Err != "" {
		t.Fatalf("lossy run failed outright: %s", got.Err)
	}
	if got.Attempted != baseline.Attempted {
		t.Errorf("attempted = %d, want %d (schema drift)", got.Attempted, baseline.Attempted)
	}
	if got.FaultDrops == 0 {
		t.Error("5% socket loss surfaced no FaultDrops")
	}
	if got.Delivered > baseline.Delivered {
		t.Errorf("delivered %d over a lossy medium, baseline only %d", got.Delivered, baseline.Delivered)
	}
	// The band: loss degrades but must not collapse the protocol — the
	// disruption it causes is bounded like any t-budget adversary's.
	if 2*got.Delivered < baseline.Delivered {
		t.Errorf("delivered %d of baseline %d: below the 50%% conformance band", got.Delivered, baseline.Delivered)
	}
	if again := lossy(); conformanceResult(again) != conformanceResult(got) {
		t.Errorf("seeded lossy run not reproducible:\n  first:  %s\n  second: %s",
			conformanceResult(got), conformanceResult(again))
	}
}
