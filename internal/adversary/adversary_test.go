package adversary

import (
	"math/rand"
	"slices"
	"testing"

	"securadio/internal/radio"
)

func pendingWith(c int, transmit map[int]bool, listen map[int]int) []radio.NodeAction {
	var out []radio.NodeAction
	for ch := range transmit {
		out = append(out, radio.NodeAction{Op: radio.OpTransmit, Channel: ch})
	}
	for ch, n := range listen {
		for i := 0; i < n; i++ {
			out = append(out, radio.NodeAction{Op: radio.OpListen, Channel: ch})
		}
	}
	return out
}

func TestSilent(t *testing.T) {
	if got := (Silent{}).Plan(0); got != nil {
		t.Fatalf("Silent planned %v", got)
	}
}

func TestRandomJammerBudgetAndRange(t *testing.T) {
	j := NewRandomJammer(3, 5, 1)
	for round := 0; round < 50; round++ {
		txs := j.Plan(round)
		if len(txs) != 3 {
			t.Fatalf("planned %d transmissions, want 3", len(txs))
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
}

func TestSweepJammerRotates(t *testing.T) {
	j := &SweepJammer{T: 2, C: 4}
	r0 := slices.Clone(j.Plan(0))
	r1 := j.Plan(1)
	if r0[0].Channel != 0 || r0[1].Channel != 1 {
		t.Fatalf("round 0 plan = %v", r0)
	}
	if r1[0].Channel != 1 || r1[1].Channel != 2 {
		t.Fatalf("round 1 plan = %v", r1)
	}
}

func TestGreedyJammerPrefersLiveChannels(t *testing.T) {
	j := &GreedyJammer{T: 1, C: 4}
	// Channel 2 has one transmitter (live); channel 0 has only listeners.
	pending := pendingWith(4, map[int]bool{2: true}, map[int]int{0: 3, 2: 1})
	txs := j.PlanOmniscient(0, pending)
	if len(txs) != 1 || txs[0].Channel != 2 {
		t.Fatalf("plan = %v, want jam on channel 2", txs)
	}
}

func TestGreedyJammerSkipsCollidedChannels(t *testing.T) {
	j := &GreedyJammer{T: 2, C: 3}
	// Channel 0 already collides (2 transmitters); channel 1 is live.
	pending := []radio.NodeAction{
		{Op: radio.OpTransmit, Channel: 0},
		{Op: radio.OpTransmit, Channel: 0},
		{Op: radio.OpTransmit, Channel: 1},
		{Op: radio.OpListen, Channel: 1},
	}
	txs := j.PlanOmniscient(0, pending)
	if len(txs) != 1 || txs[0].Channel != 1 {
		t.Fatalf("plan = %v, want only channel 1", txs)
	}
}

func TestIdleSpooferTargetsIdleListeners(t *testing.T) {
	s := &IdleSpoofer{T: 2, C: 4, Forge: func(int) radio.Message { return "fake" }}
	// Channel 1: idle with listeners (target). Channel 2: busy. Channel 3:
	// idle without listeners (pointless).
	pending := pendingWith(4, map[int]bool{2: true}, map[int]int{1: 2, 2: 1})
	txs := s.PlanOmniscient(0, pending)
	if len(txs) != 1 || txs[0].Channel != 1 || txs[0].Msg != "fake" {
		t.Fatalf("plan = %v, want spoof on channel 1", txs)
	}
}

func TestReplaySpooferReplaysObserved(t *testing.T) {
	s := NewReplaySpoofer(1, 3, 1)
	if got := s.Plan(0); got != nil {
		t.Fatalf("spoofer with no history planned %v", got)
	}
	s.Observe(radio.RoundObservation{Delivered: []radio.Message{nil, "captured", nil}})
	txs := s.Plan(1)
	if len(txs) != 1 || txs[0].Msg != "captured" {
		t.Fatalf("plan = %v, want replay of captured message", txs)
	}
}

func TestMirrorSimulatesOneIdentityPerFake(t *testing.T) {
	m := NewMirror(3, 1, []radio.Message{"f1", "f2"})
	txs := m.Plan(0)
	if len(txs) != 2 {
		t.Fatalf("planned %d transmissions, want 2", len(txs))
	}
	msgs := map[radio.Message]bool{txs[0].Msg: true, txs[1].Msg: true}
	if !msgs["f1"] || !msgs["f2"] {
		t.Fatalf("plan = %v, want both fakes", txs)
	}
}

func TestMirrorChannelDistributionUniform(t *testing.T) {
	m := NewMirror(4, 2, []radio.Message{"f"})
	counts := make([]int, 4)
	const rounds = 4000
	for r := 0; r < rounds; r++ {
		counts[m.Plan(r)[0].Channel]++
	}
	for ch, n := range counts {
		if n < rounds/8 || n > rounds/2 {
			t.Fatalf("channel %d chosen %d/%d times; distribution not near uniform", ch, n, rounds)
		}
	}
}

func TestComboJamsThenSpoofs(t *testing.T) {
	a := &Combo{T: 3, C: 4, Forge: func(int) radio.Message { return "fake" }}
	// One live channel (2), one idle-with-listeners channel (0).
	pending := pendingWith(4, map[int]bool{2: true}, map[int]int{0: 2, 2: 1})
	txs := a.PlanOmniscient(0, pending)
	if len(txs) != 2 {
		t.Fatalf("plan = %v, want jam + spoof", txs)
	}
	var jammed, spoofed bool
	for _, tx := range txs {
		if tx.Channel == 2 && tx.Msg == nil {
			jammed = true
		}
		if tx.Channel == 0 && tx.Msg == "fake" {
			spoofed = true
		}
	}
	if !jammed || !spoofed {
		t.Fatalf("plan = %v, want jam on 2 and spoof on 0", txs)
	}
}

// TestGreedyJammerEndToEnd: against a single honest broadcast per round the
// greedy jammer blocks everything.
func TestGreedyJammerEndToEnd(t *testing.T) {
	received := 0
	procs := []radio.Process{
		func(e radio.Env) {
			for i := 0; i < 20; i++ {
				e.Transmit(i%3, "data")
			}
		},
		func(e radio.Env) {
			for i := 0; i < 20; i++ {
				if e.Listen(i%3) != nil {
					received++
				}
			}
		},
	}
	cfg := radio.Config{N: 2, C: 3, T: 1, Seed: 1, Adversary: &GreedyJammer{T: 1, C: 3}}
	if _, err := radio.Run(cfg, procs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if received != 0 {
		t.Fatalf("greedy jammer let %d messages through a single channel", received)
	}
}

// TestGreedyJammerCannotBlockTPlus1Channels: with t+1 concurrent honest
// broadcasts at least one always survives — the core authentication
// insight of Section 5.
func TestGreedyJammerCannotBlockAll(t *testing.T) {
	const c, tt, rounds = 4, 3, 30
	received := make([]int, c)
	procs := make([]radio.Process, 2*c)
	for ch := 0; ch < c; ch++ {
		ch := ch
		procs[ch] = func(e radio.Env) {
			for i := 0; i < rounds; i++ {
				e.Transmit(ch, ch)
			}
		}
		procs[c+ch] = func(e radio.Env) {
			for i := 0; i < rounds; i++ {
				if e.Listen(ch) != nil {
					received[ch]++
				}
			}
		}
	}
	cfg := radio.Config{N: 2 * c, C: c, T: tt, Seed: 1, Adversary: &GreedyJammer{T: tt, C: c}}
	if _, err := radio.Run(cfg, procs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := 0
	for _, n := range received {
		total += n
	}
	if total != rounds { // exactly one channel survives each round
		t.Fatalf("got %d total deliveries over %d rounds, want exactly %d", total, rounds, rounds)
	}
}

// referenceGreedyPlan is the pre-optimization planner: a full O(C^2)
// selection sort over all channels, taking the top-t positive scores. The
// shipping planner sorts only the first t positions; selection sort fixes
// position i permanently at step i, so the two must agree exactly.
func referenceGreedyPlan(t, c int, pending []radio.NodeAction) []radio.Transmission {
	info := make([]chanInfo, c)
	for _, a := range pending {
		switch a.Op {
		case radio.OpTransmit:
			info[a.Channel].transmitters++
		case radio.OpListen:
			info[a.Channel].listeners++
		}
	}
	score := func(ch int) int {
		if info[ch].transmitters == 1 {
			return 1 + info[ch].listeners
		}
		return 0
	}
	order := make([]int, c)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		best := i
		for k := i + 1; k < len(order); k++ {
			if score(order[k]) > score(order[best]) {
				best = k
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	out := make([]radio.Transmission, 0, t)
	for i := 0; i < t && i < len(order); i++ {
		if score(order[i]) == 0 {
			break
		}
		out = append(out, radio.Transmission{Channel: order[i]})
	}
	return out
}

func TestGreedyJammerWideSpectrumMatchesReference(t *testing.T) {
	// Randomized wide-spectrum rounds, including heavy score ties (many
	// single-transmitter channels with equal listener counts), replayed
	// through one jammer instance so scratch reuse is exercised too.
	const c, budget, n = 200, 20, 160
	j := &GreedyJammer{T: budget, C: c}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 50; round++ {
		pending := make([]radio.NodeAction, n)
		for i := range pending {
			ch := rng.Intn(c / 2) // crowd half the spectrum to force ties
			if rng.Intn(3) == 0 {
				pending[i] = radio.NodeAction{Op: radio.OpTransmit, Channel: ch}
			} else {
				pending[i] = radio.NodeAction{Op: radio.OpListen, Channel: ch}
			}
		}
		got := j.PlanOmniscient(round, pending)
		want := referenceGreedyPlan(budget, c, pending)
		if len(got) != len(want) {
			t.Fatalf("round %d: planned %d transmissions, reference %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i].Channel != want[i].Channel {
				t.Fatalf("round %d: plan[%d] = ch %d, reference ch %d", round, i, got[i].Channel, want[i].Channel)
			}
		}
	}
}
