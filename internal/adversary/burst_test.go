package adversary

import (
	"math/rand"
	"slices"
	"testing"

	"securadio/internal/radio"
)

func TestBurstJammerDutyCycle(t *testing.T) {
	j := NewBurstJammer(2, 4, 3, 2, 1)
	for round := 0; round < 20; round++ {
		txs := j.Plan(round)
		if round%5 < 3 {
			if len(txs) != 2 {
				t.Fatalf("round %d: planned %d transmissions, want 2", round, len(txs))
			}
			for _, tx := range txs {
				if tx.Channel < 0 || tx.Channel >= 4 {
					t.Fatalf("round %d: channel %d out of range", round, tx.Channel)
				}
				if tx.Msg != nil {
					t.Fatalf("round %d: jammer carried payload %v", round, tx.Msg)
				}
			}
		} else if len(txs) != 0 {
			t.Fatalf("round %d: planned %v during silence window", round, txs)
		}
	}
}

func TestBurstJammerFreezesChannelsWithinBurst(t *testing.T) {
	j := NewBurstJammer(2, 8, 4, 1, 7)
	first := slices.Clone(j.Plan(0))
	for round := 1; round < 4; round++ {
		txs := j.Plan(round)
		for i := range txs {
			if txs[i].Channel != first[i].Channel {
				t.Fatalf("round %d: burst hopped from %v to %v", round, first, txs)
			}
		}
	}
}

func TestBurstJammerBackToBackBurstsHop(t *testing.T) {
	// Off = 0 means back-to-back bursts; each period must still re-roll
	// its channels instead of degenerating into a static jam.
	j := NewBurstJammer(2, 8, 4, 0, 3)
	sets := make(map[string]bool)
	for round := 0; round < 20; round++ {
		txs := j.Plan(round)
		if len(txs) != 2 {
			t.Fatalf("round %d: planned %d transmissions, want 2", round, len(txs))
		}
		if round%4 == 3 {
			key := ""
			for _, tx := range txs {
				key += string(rune('a' + tx.Channel))
			}
			sets[key] = true
		}
	}
	if len(sets) < 2 {
		t.Fatalf("5 back-to-back bursts all jammed the same channel set %v", sets)
	}
}

func TestBurstJammerDefaults(t *testing.T) {
	j := NewBurstJammer(1, 2, 0, -1, 3)
	if j.On != 8 || j.Off != 8 {
		t.Fatalf("defaults On=%d Off=%d, want 8/8", j.On, j.Off)
	}
}

func TestHopJammerTracksHotChannel(t *testing.T) {
	j := NewHopJammer(1, 4, 1)
	// Feed several rounds of honest transmissions concentrated on channel 2.
	for round := 0; round < 10; round++ {
		j.Observe(radio.RoundObservation{
			Round: round,
			Actions: []radio.NodeAction{
				{Op: radio.OpTransmit, Channel: 2},
				{Op: radio.OpListen, Channel: 2},
			},
		})
	}
	txs := j.Plan(10)
	if len(txs) != 1 || txs[0].Channel != 2 {
		t.Fatalf("plan = %v, want the hot channel 2", txs)
	}
}

func TestHopJammerIgnoresOwnTransmissions(t *testing.T) {
	j := NewHopJammer(1, 3, 5)
	// Adversarial traffic on channel 0 (Transmitters counts it) must not
	// feed back into the score: only honest actions do.
	for round := 0; round < 6; round++ {
		j.Observe(radio.RoundObservation{
			Round:        round,
			Actions:      []radio.NodeAction{{Op: radio.OpTransmit, Channel: 1}},
			Adversarial:  []radio.Transmission{{Channel: 0}},
			Transmitters: []int{1, 1, 0},
		})
	}
	txs := j.Plan(6)
	if len(txs) != 1 || txs[0].Channel != 1 {
		t.Fatalf("plan = %v, want the honest channel 1", txs)
	}
}

func TestHopJammerBudget(t *testing.T) {
	j := NewHopJammer(2, 5, 9)
	txs := j.Plan(0)
	if len(txs) != 2 {
		t.Fatalf("planned %d transmissions, want 2", len(txs))
	}
	seen := make(map[int]bool)
	for _, tx := range txs {
		if tx.Channel < 0 || tx.Channel >= 5 {
			t.Fatalf("channel %d out of range", tx.Channel)
		}
		if seen[tx.Channel] {
			t.Fatalf("duplicate channel %d", tx.Channel)
		}
		seen[tx.Channel] = true
	}
}

// referenceHopPlan is the plain form of HopJammer.Plan that the partial
// selection must match: a fresh rand.Perm, a full selection sort and a
// fresh result every round.
func referenceHopPlan(j *HopJammer) []radio.Transmission {
	if j.score == nil {
		j.score = make([]float64, j.C)
	}
	order := j.Rng.Perm(j.C)
	for i := 0; i < len(order); i++ {
		best := i
		for k := i + 1; k < len(order); k++ {
			if j.score[order[k]] > j.score[order[best]] {
				best = k
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	out := make([]radio.Transmission, 0, j.T)
	for i := 0; i < j.T && i < len(order); i++ {
		out = append(out, radio.Transmission{Channel: order[i]})
	}
	return out
}

// randomHopObservation draws one round of honest activity: about one
// round in eight is silent, and the rest land whole counts on a handful of
// neighbouring channels, so channels tie on equal counts as well as on the
// zero score of channels nobody used.
func randomHopObservation(rng *rand.Rand, round, c int) radio.RoundObservation {
	obs := radio.RoundObservation{Round: round}
	if rng.Intn(8) == 0 {
		return obs
	}
	hot := 1 + rng.Intn(min(c, 4))
	base := rng.Intn(c)
	for i := rng.Intn(3 * hot); i >= 0; i-- {
		a := radio.NodeAction{Op: radio.OpListen, Channel: (base + rng.Intn(hot)) % c}
		if rng.Intn(2) == 0 {
			a.Op = radio.OpTransmit
		}
		obs.Actions = append(obs.Actions, a)
	}
	return obs
}

// TestHopJammerPlanMatchesReference drives the partial-selection Plan and
// the reference full sort from one seed through one observation stream
// and requires the same plan every round and the same RNG state at the
// end. Both score tables are cleared every 250 rounds, so the all-zero
// cold start recurs.
func TestHopJammerPlanMatchesReference(t *testing.T) {
	const rounds = 1000
	for _, tc := range []struct{ t, c int }{{1, 3}, {1, 72}, {2, 5}, {4, 3}, {8, 128}, {16, 512}} {
		seed := int64(31*tc.t + tc.c)
		got := NewHopJammer(tc.t, tc.c, seed)
		want := NewHopJammer(tc.t, tc.c, seed)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < rounds; round++ {
			if round%250 == 0 {
				clear(got.score)
				clear(want.score)
			}
			plan := slices.Clone(got.Plan(round))
			ref := referenceHopPlan(want)
			if !slices.Equal(plan, ref) {
				t.Fatalf("t=%d C=%d round %d: plan %v, reference %v", tc.t, tc.c, round, plan, ref)
			}
			obs := randomHopObservation(rng, round, tc.c)
			got.Observe(obs)
			want.Observe(obs)
		}
		if g, w := got.Rng.Int63(), want.Rng.Int63(); g != w {
			t.Fatalf("t=%d C=%d: RNG diverged after %d rounds: next draw %d, reference %d", tc.t, tc.c, rounds, g, w)
		}
	}
}

func TestHopJammerPlanAllocsNothing(t *testing.T) {
	for _, tc := range []struct{ t, c int }{{1, 72}, {16, 512}} {
		j := NewHopJammer(tc.t, tc.c, 1)
		j.Observe(radio.RoundObservation{Actions: []radio.NodeAction{{Op: radio.OpTransmit, Channel: 1}}})
		j.Plan(0) // warm-up: sizes the reused scratch
		if allocs := testing.AllocsPerRun(100, func() { j.Plan(1) }); allocs != 0 {
			t.Fatalf("t=%d C=%d: Plan allocates %.1f times per call, want 0", tc.t, tc.c, allocs)
		}
	}
}
