package securadio

// Public fault-injection surface suite: WithFaults must degrade every
// protocol layer gracefully (within the model's quorum), fail with the
// typed quorum errors past it, stay bit-reproducible across reruns, and
// be a provable no-op when disabled.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// churnProfile is a within-quorum churn load for a 20-node network:
// a couple of crashes, a recovery and a late join.
func churnProfile() FaultProfile {
	return NewFaultProfile(0.2, 0)
}

func TestWithFaultsExchangeDegradesGracefully(t *testing.T) {
	net := Network{N: 20, C: 2, T: 1, Seed: 42}
	r, err := NewRunner(net, WithFaults(churnProfile()))
	if err != nil {
		t.Fatal(err)
	}
	pairs, payloads := somePairs()
	rep, err := r.Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatalf("faulted exchange must complete degraded, got %v", err)
	}
	if rep.NodesLost == 0 {
		t.Fatalf("churn profile compiled to zero crashed nodes: %+v", rep)
	}
	if rep.DegradedRounds == 0 {
		t.Fatalf("no degraded rounds recorded: %+v", rep)
	}
	if len(rep.Delivered)+len(rep.Failed) != len(pairs) {
		t.Fatalf("accounting leak: %d delivered + %d failed != %d pairs",
			len(rep.Delivered), len(rep.Failed), len(pairs))
	}
}

func TestWithFaultsLossDegradesAllLayers(t *testing.T) {
	net := Network{N: 20, C: 3, T: 1, Seed: 7}
	loss := FaultProfile{Loss: ptrLoss(NewLossModel(0.05))}
	r, err := NewRunner(net, WithFaults(loss))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.GroupKey(context.Background()); err != nil {
		t.Fatalf("group key under mild loss: %v", err)
	}
	rep, err := r.SecureGroup(context.Background(), func(s Session) {
		for em := 0; em < 2; em++ {
			var body []byte
			if s.ID() == em {
				body = []byte("x")
			}
			s.Step(body)
		}
	})
	if err != nil {
		t.Fatalf("secure group under mild loss: %v", err)
	}
	if rep.FaultDrops == 0 || rep.DegradedRounds == 0 {
		t.Fatalf("loss model left no trace in the report: %+v", rep)
	}
}

func ptrLoss(m LossModel) *LossModel { return &m }

func TestWithFaultsPastQuorumFailsTyped(t *testing.T) {
	// Half the nodes crash for good: the n-t key-holder quorum (19 of 20)
	// is unreachable and the stack must fail with the typed setup error,
	// not hang or panic.
	net := Network{N: 20, C: 2, T: 1, Seed: 3}
	r, err := NewRunner(net, WithFaults(FaultProfile{CrashFrac: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.SecureGroup(context.Background(), func(s Session) {
		s.Step(nil)
	})
	if !errors.Is(err, ErrSetupFailed) {
		t.Fatalf("want ErrSetupFailed past quorum, got %v", err)
	}
	if rep == nil || rep.NodesLost == 0 {
		t.Fatalf("failed run must still report degradation counters: %+v", rep)
	}
}

func TestWithFaultsDisabledIsNoop(t *testing.T) {
	net := Network{N: 20, C: 2, T: 1, Seed: 42}
	pairs, payloads := somePairs()
	plain, err := NewRunner(net)
	if err != nil {
		t.Fatal(err)
	}
	zeroed, err := NewRunner(net, WithFaults(FaultProfile{}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatal(err)
	}
	b, err := zeroed.Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zero fault profile perturbed the run:\nplain  %+v\nzeroed %+v", a, b)
	}
}

func TestWithFaultsRejectsBadProfile(t *testing.T) {
	_, err := NewRunner(Network{N: 20, C: 2, T: 1}, WithFaults(FaultProfile{CrashFrac: 0.9, LateFrac: 0.9}))
	if !errors.Is(err, ErrBadParams) {
		t.Fatalf("want ErrBadParams for overfull churn fractions, got %v", err)
	}
}

// TestFaultedObserverEquivalence replays a faulted run and demands a
// byte-identical public event stream, fault fields included — the
// determinism guarantee extended to the fault layer. It also checks that
// the fault fields actually fire.
func TestFaultedObserverEquivalence(t *testing.T) {
	profile := NewFaultProfile(0.2, 0.08)
	digest := func() (string, int) {
		d := &digestingObserver{h: sha256.New()}
		drops := 0
		probe := ObserverFunc(func(ev *RoundEvent) {
			d.ObserveRound(ev)
			drops += ev.FaultDrops
		})
		r, err := NewRunner(Network{N: 20, C: 2, T: 1, Seed: 42},
			WithAdversary("jam"), WithObserver(probe), WithFaults(profile))
		if err != nil {
			t.Fatal(err)
		}
		pairs, payloads := somePairs()
		rep, err := r.Exchange(context.Background(), pairs, payloads)
		fmt.Fprintf(d.h, "err=%v\n", err)
		if rep != nil {
			fmt.Fprintf(d.h, "counters=%d/%d/%d\n", rep.FaultDrops, rep.NodesLost, rep.DegradedRounds)
		}
		return hex.EncodeToString(d.h.Sum(nil)), drops
	}
	want, drops := digest()
	if drops == 0 {
		t.Fatal("fault fields never reached the observer")
	}
	if got, _ := digest(); got != want {
		t.Fatalf("faulted event stream diverged on a rerun: %s vs %s", got, want)
	}
}
