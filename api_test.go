package securadio

import (
	"context"
	"fmt"
	"testing"
)

func testNet() Network {
	return Network{N: 20, C: 2, T: 1, Seed: 42}
}

// newRunner builds a Runner for net or fails the test.
func newRunner(t testing.TB, net Network, opts ...RunnerOption) *Runner {
	t.Helper()
	r, err := NewRunner(net, opts...)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r
}

func somePairs() ([]Pair, map[Pair]Message) {
	pairs := []Pair{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
		{Src: 4, Dst: 5}, {Src: 6, Dst: 7}, {Src: 8, Dst: 9},
	}
	payloads := make(map[Pair]Message, len(pairs))
	for _, p := range pairs {
		payloads[p] = fmt.Sprintf("payload %d->%d", p.Src, p.Dst)
	}
	return pairs, payloads
}

func TestExchangeMessagesClean(t *testing.T) {
	net := testNet()
	pairs, payloads := somePairs()
	rep, err := newRunner(t, net).Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failures without adversary: %v", rep.Failed)
	}
	for _, p := range pairs {
		if rep.Delivered[p] != payloads[p] {
			t.Fatalf("pair %v delivered %v", p, rep.Delivered[p])
		}
	}
}

func TestExchangeMessagesUnderWorstCaseJamming(t *testing.T) {
	net := testNet()
	net.Adversary = NewWorstCaseJammer(net)
	pairs, payloads := somePairs()
	rep, err := newRunner(t, net).Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if rep.DisruptionCover > net.T {
		t.Fatalf("disruption cover %d exceeds t=%d", rep.DisruptionCover, net.T)
	}
	for p, got := range rep.Delivered {
		if got != payloads[p] {
			t.Fatalf("pair %v delivered %v (authenticity)", p, got)
		}
	}
}

func TestExchangeMessagesCleanupDeliversStragglers(t *testing.T) {
	// An odd residue that the paper-faithful greedy strategy strands: with
	// cleanup enabled and no adversary, everything must be delivered.
	net := testNet()
	// Eight edges out of node 0 plus one odd pair: the canonical greedy
	// pairs node 0's edges two per move and then cannot form a final
	// (t+1)-proposal for 9->10 alone.
	var pairs []Pair
	for dst := 1; dst <= 8; dst++ {
		pairs = append(pairs, Pair{Src: 0, Dst: dst})
	}
	pairs = append(pairs, Pair{Src: 9, Dst: 10})
	payloads := make(map[Pair]Message)
	for _, p := range pairs {
		payloads[p] = "x"
	}
	plain, err := newRunner(t, net).Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if len(plain.Failed) == 0 {
		t.Fatal("workload did not strand a straggler; the cleanup test needs one")
	}
	cleaned, err := newRunner(t, net, WithCleanup(8)).Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatalf("Exchange with cleanup: %v", err)
	}
	if len(cleaned.Failed) != 0 {
		t.Fatalf("cleanup left failures: %v", cleaned.Failed)
	}
}

func TestExchangeMessagesCompact(t *testing.T) {
	net := testNet()
	pairs := []Pair{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 3, Dst: 4}, {Src: 5, Dst: 6}}
	payloads := make(map[Pair]string, len(pairs))
	for _, p := range pairs {
		payloads[p] = fmt.Sprintf("compact %v", p)
	}
	rep, err := newRunner(t, net).ExchangeCompact(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatalf("ExchangeCompact: %v", err)
	}
	if rep.DisruptionCover > net.T {
		t.Fatalf("cover %d exceeds t", rep.DisruptionCover)
	}
	for _, p := range pairs {
		if got, ok := rep.Delivered[p]; ok && got != Message(payloads[p]) {
			t.Fatalf("pair %v delivered %v", p, got)
		}
	}
}

func TestExchangeMessagesDirectMode(t *testing.T) {
	net := testNet()
	pairs, payloads := somePairs()
	rep, err := newRunner(t, net, WithDirect(true)).Exchange(context.Background(), pairs, payloads)
	if err != nil {
		t.Fatalf("Exchange direct: %v", err)
	}
	if rep.DisruptionCover > 2*net.T {
		t.Fatalf("direct-mode cover %d exceeds 2t", rep.DisruptionCover)
	}
}

func TestEstablishGroupKeyAPI(t *testing.T) {
	net := testNet()
	net.Adversary = NewJammer(net, 7)
	rep, err := newRunner(t, net).GroupKey(context.Background())
	if err != nil {
		t.Fatalf("GroupKey: %v", err)
	}
	if rep.Agreed < net.N-net.T {
		t.Fatalf("agreed = %d, want >= %d", rep.Agreed, net.N-net.T)
	}
	var key *[32]byte
	holders := 0
	for _, k := range rep.Keys {
		if k == nil {
			continue
		}
		holders++
		if key == nil {
			key = k
		} else if *key != *k {
			t.Fatal("key holders disagree")
		}
	}
	if holders != rep.Agreed {
		t.Fatalf("holders = %d, report says %d", holders, rep.Agreed)
	}
}

func TestRunSecureGroupEndToEnd(t *testing.T) {
	net := testNet()
	net.Adversary = NewJammer(net, 11)

	type obs struct {
		id   int
		got  map[int]string // emRound -> first body received
		sent bool
	}
	results := make([]obs, net.N)
	app := func(s Session) {
		o := &results[s.ID()]
		o.id = s.ID()
		o.got = make(map[int]string)
		for em := 0; em < 3; em++ {
			var body []byte
			if s.ID() == em+2 { // a different speaker each emulated round
				body = []byte(fmt.Sprintf("broadcast %d", em))
				o.sent = true
			}
			for _, d := range s.Step(body) {
				if _, dup := o.got[d.EmRound]; !dup {
					o.got[d.EmRound] = fmt.Sprintf("%d:%s", d.Sender, d.Body)
				}
			}
		}
	}
	rep, err := newRunner(t, net).SecureGroup(context.Background(), app)
	if err != nil {
		t.Fatalf("SecureGroup: %v", err)
	}
	if rep.KeyHolders < net.N-net.T {
		t.Fatalf("key holders = %d", rep.KeyHolders)
	}
	if rep.SetupRounds <= 0 || rep.TotalRounds <= rep.SetupRounds {
		t.Fatalf("round accounting wrong: %+v", rep)
	}
	// Every key holder other than the speaker must have heard each round's
	// broadcast.
	for em := 0; em < 3; em++ {
		want := fmt.Sprintf("%d:broadcast %d", em+2, em)
		heard := 0
		for i := range results {
			if results[i].got[em] == want {
				heard++
			}
		}
		if heard < net.N-net.T-1 {
			t.Fatalf("emulated round %d heard by only %d nodes", em, heard)
		}
	}
}

func TestAdversaryConstructorsBudget(t *testing.T) {
	net := Network{N: 4, C: 4, T: 2}
	for name, adv := range map[string]Interferer{
		"jammer": NewJammer(net, 1),
		"sweep":  NewSweepJammer(net),
		"replay": NewReplayer(net, 2),
	} {
		txs := adv.Plan(0)
		if len(txs) > net.T {
			t.Fatalf("%s exceeded budget: %d", name, len(txs))
		}
	}
	spoofer := NewSpoofer(net, func(int) Message { return "f" })
	if spoofer == nil {
		t.Fatal("NewSpoofer returned nil")
	}
	wc := NewWorstCaseJammer(net)
	if wc == nil {
		t.Fatal("NewWorstCaseJammer returned nil")
	}
}
