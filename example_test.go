package securadio_test

import (
	"context"
	"fmt"
	"sync/atomic"

	"securadio"
)

// ExampleNewRunner builds the context-aware Runner once and drives two
// protocol layers through the same configuration, watching the spectrum
// with a streaming observer.
func ExampleNewRunner() {
	net := securadio.Network{N: 20, C: 2, T: 1, Seed: 7}
	var jammedRounds atomic.Int64
	r, err := securadio.NewRunner(net,
		securadio.WithAdversary("jam"), // registry strategy; an Interferer works too
		securadio.WithObserver(securadio.ObserverFunc(func(ev *securadio.RoundEvent) {
			for _, ch := range ev.Channels {
				if ch.Jammed {
					jammedRounds.Add(1)
					break
				}
			}
		})))
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	ctx := context.Background() // cancelable in production
	pairs := []securadio.Pair{{Src: 2, Dst: 5}, {Src: 3, Dst: 6}}
	payloads := map[securadio.Pair]securadio.Message{pairs[0]: "alpha", pairs[1]: "bravo"}
	rep, err := r.Exchange(ctx, pairs, payloads)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The jammer blocks what its budget covers (here one of the two
	// pairs); the sender is aware of every failure.
	fmt.Println("delivered:", len(rep.Delivered), "of", len(pairs))
	fmt.Println("cover within t:", rep.DisruptionCover <= net.T)

	keys, err := r.GroupKey(ctx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("keyed quorum:", keys.Agreed >= net.N-net.T)
	fmt.Println("observed jamming:", jammedRounds.Load() > 0)
	// Output:
	// delivered: 1 of 2
	// cover within t: true
	// keyed quorum: true
	// observed jamming: true
}

// ExampleRunner_Exchange runs f-AME on a small jammed network. The run is
// fully deterministic for a fixed seed.
func ExampleRunner_Exchange() {
	net := securadio.Network{N: 20, C: 2, T: 1, Seed: 7}
	net.Adversary = securadio.NewWorstCaseJammer(net)

	pairs := []securadio.Pair{
		{Src: 2, Dst: 5},
		{Src: 3, Dst: 6},
		{Src: 4, Dst: 7},
	}
	payloads := map[securadio.Pair]securadio.Message{
		{Src: 2, Dst: 5}: "alpha",
		{Src: 3, Dst: 6}: "bravo",
		{Src: 4, Dst: 7}: "charlie",
	}

	r, err := securadio.NewRunner(net)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	report, err := r.Exchange(context.Background(), pairs, payloads)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, p := range pairs {
		if msg, ok := report.Delivered[p]; ok {
			fmt.Printf("%v: %v\n", p, msg)
		} else {
			fmt.Printf("%v: fail\n", p)
		}
	}
	// The worst-case jammer always claims its t-coverable share — here it
	// manages to block one pair, and the sender knows it (Definition 1).
	fmt.Println("cover within t:", report.DisruptionCover <= net.T)
	// Output:
	// 2->5: fail
	// 3->6: bravo
	// 4->7: charlie
	// cover within t: true
}

// ExampleRunner_GroupKey bootstraps a shared secret among 20 devices
// with no pre-shared keys, under random jamming.
func ExampleRunner_GroupKey() {
	net := securadio.Network{N: 20, C: 2, T: 1, Seed: 1}
	net.Adversary = securadio.NewJammer(net, 2)

	r, err := securadio.NewRunner(net)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	report, err := r.GroupKey(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("leader:", report.Leader)
	fmt.Println("quorum met:", report.Agreed >= net.N-net.T)
	// Output:
	// leader: 0
	// quorum met: true
}

// ExampleRunner_SecureGroup sends one authenticated broadcast over the
// long-lived emulated channel.
func ExampleRunner_SecureGroup() {
	net := securadio.Network{N: 20, C: 2, T: 1, Seed: 5}

	var heardBy atomic.Int64 // the app callback runs once per node, concurrently
	app := func(s securadio.Session) {
		var body []byte
		if s.ID() == 3 {
			body = []byte("rendezvous at dawn")
		}
		for _, d := range s.Step(body) {
			if d.Sender == 3 && string(d.Body) == "rendezvous at dawn" {
				heardBy.Add(1)
			}
		}
	}
	r, err := securadio.NewRunner(net)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, err := r.SecureGroup(context.Background(), app); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("all listeners heard the broadcast:", heardBy.Load() == int64(net.N-1))
	// Output:
	// all listeners heard the broadcast: true
}
