package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestScenarioDigests pins the JSON aggregate of seed-7 campaigns that
// performance work must leave byte-identical: f-AME on C=t+1, the 2t and
// 2t^2 regimes against the hopping jammer (fame-wide runs it at C=128),
// the full secure-group stack, and copies of the two campaign shapes the
// benchmark runs: its wide scenario (hop at C=72, where witness pools are
// longer than 3L) and its keyed one. Each golden line is a scenario name,
// its run count and the sha256 of Aggregate.WriteJSON; rerun with -update
// to capture an intended change.
func TestScenarioDigests(t *testing.T) {
	cases := []struct {
		sc   Scenario
		runs int
	}{
		{mustLookup(t, "fame-jam"), 64},
		{mustLookup(t, "fame-hop-2t"), 32},
		{mustLookup(t, "securegroup-hop"), 32},
		{mustLookup(t, "fame-wide"), 2},
		{Scenario{
			Name: "fame-wide-72", Desc: "f-AME at N=150 across a 72-channel spectrum vs hopping jammer",
			Proto: ProtoFame, N: 150, C: 72, T: 1, Pairs: 8, Span: 32, Adversary: "hop",
		}, 8},
		{Scenario{
			Name: "securegroup-hop-c3", Desc: "group key + secure channel on C=3 vs hopping jammer",
			Proto: ProtoSecureGroup, N: 20, C: 3, T: 1, EmRounds: 4, Adversary: "hop",
		}, 32},
	}
	var got bytes.Buffer
	for _, tc := range cases {
		agg, err := Run(context.Background(), Campaign{Scenario: tc.sc, Runs: tc.runs, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", tc.sc.Name, err)
		}
		h := sha256.New()
		if err := agg.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", tc.sc.Name, tc.runs, h.Sum(nil))
	}
	checkGolden(t, "scenario_digests.golden", got.Bytes())
}

func mustLookup(t *testing.T, name string) Scenario {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q is not registered", name)
	}
	return sc
}
