package adversary

import (
	"slices"
	"testing"

	"securadio/internal/radio"
)

// planOn always transmits on a fixed channel set.
type planOn struct {
	channels []int
	observed int
}

func (p *planOn) Plan(int) []radio.Transmission {
	out := make([]radio.Transmission, 0, len(p.channels))
	for _, c := range p.channels {
		out = append(out, radio.Transmission{Channel: c})
	}
	return out
}

func (p *planOn) Observe(radio.RoundObservation) { p.observed++ }

func TestLayeredBudgetAndDedup(t *testing.T) {
	a := NewLayered(2, &planOn{channels: []int{0, 1}}, &planOn{channels: []int{1, 2}})
	plan := a.Plan(0)
	if len(plan) != 2 {
		t.Fatalf("plan = %v, want budget 2", plan)
	}
	seen := map[int]bool{}
	for _, tx := range plan {
		if seen[tx.Channel] {
			t.Fatalf("duplicate channel in plan %v", plan)
		}
		seen[tx.Channel] = true
	}
}

// TestLayeredRotatesPriority: at t=1 both layers must get airtime across
// consecutive rounds instead of the first layer starving the second.
func TestLayeredRotatesPriority(t *testing.T) {
	a := NewLayered(1, &planOn{channels: []int{0}}, &planOn{channels: []int{1}})
	even := slices.Clone(a.Plan(0))
	odd := a.Plan(1)
	if len(even) != 1 || len(odd) != 1 {
		t.Fatalf("plans = %v, %v", even, odd)
	}
	if even[0].Channel == odd[0].Channel {
		t.Fatalf("priority never rotates: both rounds used channel %d", even[0].Channel)
	}
}

func TestLayeredObserveFansOut(t *testing.T) {
	l1, l2 := &planOn{}, &planOn{}
	a := NewLayered(1, l1, l2)
	a.Observe(radio.RoundObservation{})
	a.Observe(radio.RoundObservation{})
	if l1.observed != 2 || l2.observed != 2 {
		t.Fatalf("observations = %d, %d, want 2, 2", l1.observed, l2.observed)
	}
}

// TestLayeredOmniscientPassthrough: an omniscient layer receives the
// pending actions through the composite instead of being silently dropped
// (its Plan returns nil by convention).
func TestLayeredOmniscientPassthrough(t *testing.T) {
	greedy := &GreedyJammer{T: 1, C: 2}
	a := NewLayered(1, greedy)
	pending := []radio.NodeAction{
		{Op: radio.OpTransmit, Channel: 1},
		{Op: radio.OpListen, Channel: 1},
	}
	plan := a.PlanOmniscient(0, pending)
	if len(plan) != 1 || plan[0].Channel != 1 {
		t.Fatalf("plan = %v, want the greedy layer to jam channel 1", plan)
	}
	// Under plain dispatch the omniscient layer contributes nothing, by
	// its own Plan contract.
	if plan := a.Plan(0); len(plan) != 0 {
		t.Fatalf("plain Plan = %v, want empty (greedy plans only omnisciently)", plan)
	}
}

func TestLayeredEmpty(t *testing.T) {
	if plan := NewLayered(0, &planOn{channels: []int{0}}).Plan(0); plan != nil {
		t.Fatalf("zero budget planned %v", plan)
	}
	if plan := NewLayered(3).Plan(0); plan != nil {
		t.Fatalf("zero layers planned %v", plan)
	}
}
