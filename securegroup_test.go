package securadio

import (
	"context"
	"testing"
)

// TestSecureGroupSetupRoundsIsMax pins the SetupRounds fix: the reported
// setup cost must be the maximum across nodes — the true lock-step cost
// the application pays — not node 0's local view, and the per-node
// breakdown must be exposed and consistent with it.
func TestSecureGroupSetupRoundsIsMax(t *testing.T) {
	net := testNet()
	net.Adversary = NewJammer(net, 23)
	rep, err := newRunner(t, net).SecureGroup(context.Background(), func(s Session) {
		for em := 0; em < 2; em++ {
			s.Step(nil)
		}
	})
	if err != nil {
		t.Fatalf("SecureGroup: %v", err)
	}
	if len(rep.SetupRoundsByNode) != net.N {
		t.Fatalf("SetupRoundsByNode has %d entries for N=%d", len(rep.SetupRoundsByNode), net.N)
	}
	max := 0
	for i, rounds := range rep.SetupRoundsByNode {
		if rounds <= 0 {
			t.Fatalf("node %d reports non-positive setup cost %d", i, rounds)
		}
		if rounds > max {
			max = rounds
		}
	}
	if rep.SetupRounds != max {
		t.Fatalf("SetupRounds = %d, want the per-node maximum %d", rep.SetupRounds, max)
	}
	if rep.TotalRounds <= rep.SetupRounds {
		t.Fatalf("round accounting wrong: %+v", rep)
	}
}

// TestSecureGroupRunnerReportsKeylessLockStep drives the Runner method
// directly and checks that keyless nodes (if any) still consume the same
// emulated rounds — the Session lock-step contract.
func TestSecureGroupRunnerSteps(t *testing.T) {
	net := testNet()
	steps := make([]int, net.N)
	r, err := NewRunner(net, WithAdversary("jam"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.SecureGroup(context.Background(), func(s Session) {
		for em := 0; em < 3; em++ {
			s.Step(nil)
			steps[s.ID()]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range steps {
		if n != 3 {
			t.Fatalf("node %d stepped %d times, want 3", i, n)
		}
	}
	if rep.KeyHolders < net.N-net.T {
		t.Fatalf("key holders = %d", rep.KeyHolders)
	}
}
