package radio

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestManyNodesLockstep runs a few hundred nodes through a mixed workload
// and checks global conservation properties: every round every live node
// takes exactly one action, and the engine's statistics add up.
func TestManyNodesLockstep(t *testing.T) {
	const n, rounds = 300, 40
	var listens, hears int64
	procs := make([]Process, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = func(e Env) {
			for r := 0; r < rounds; r++ {
				switch {
				case i%3 == 0:
					e.Transmit(i%e.C(), i)
				case i%3 == 1:
					atomic.AddInt64(&listens, 1)
					if e.Listen(i%e.C()) != nil {
						atomic.AddInt64(&hears, 1)
					}
				default:
					e.Sleep()
				}
			}
		}
	}
	cfg := Config{N: n, C: 5, T: 2, Seed: 3}
	res, err := Run(cfg, procs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", res.Rounds, rounds)
	}
	wantTx := rounds * ((n + 2) / 3)
	if res.HonestTransmissions != wantTx {
		t.Fatalf("transmissions = %d, want %d", res.HonestTransmissions, wantTx)
	}
	if listens != int64(rounds*(n/3)) {
		t.Fatalf("listens = %d", listens)
	}
	// With 100 transmitters per 5 channels everything collides; nobody
	// hears anything.
	if hears != 0 {
		t.Fatalf("heard %d messages through guaranteed collisions", hears)
	}
	if res.Collisions != rounds*5 {
		t.Fatalf("collisions = %d, want %d", res.Collisions, rounds*5)
	}
}

// TestNodesRunInIDOrder pins the drive contract the Env doc states: node
// programs run one at a time, in ID order, even with several Ps.
func TestNodesRunInIDOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, rounds = 64, 10
	var (
		mu  sync.Mutex
		log []int
	)
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = func(e Env) {
			for r := 0; r < rounds; r++ {
				mu.Lock()
				log = append(log, e.ID())
				mu.Unlock()
				e.Listen(0)
			}
		}
	}
	if _, err := Run(Config{N: n, C: 2, T: 1, Seed: 1}, procs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log) != n*rounds {
		t.Fatalf("log has %d entries, want %d", len(log), n*rounds)
	}
	for k, id := range log {
		if id != k%n {
			t.Fatalf("entry %d is node %d, want node %d", k, id, k%n)
		}
	}
}

// TestRoundCounterAdvances checks Env.Round across all operation types.
func TestRoundCounterAdvances(t *testing.T) {
	var seen []int
	procs := []Process{
		func(e Env) {
			seen = append(seen, e.Round())
			e.Sleep()
			seen = append(seen, e.Round())
			e.Transmit(0, "x")
			seen = append(seen, e.Round())
			e.Listen(1)
			seen = append(seen, e.Round())
			e.SleepFor(3)
			seen = append(seen, e.Round())
			e.SleepFor(0) // no-op
			seen = append(seen, e.Round())
		},
	}
	if _, err := Run(cfg(1, 2, 1), procs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2, 3, 6, 6}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("round sequence %v, want %v", seen, want)
		}
	}
}

// TestBroadcastReachesAllListeners: one transmitter, many listeners, all
// get the same value.
func TestBroadcastReachesAllListeners(t *testing.T) {
	const n = 64
	got := make([]Message, n)
	procs := make([]Process, n)
	procs[0] = func(e Env) { e.Transmit(2, "wide") }
	for i := 1; i < n; i++ {
		i := i
		procs[i] = func(e Env) { got[i] = e.Listen(2) }
	}
	if _, err := Run(cfg(n, 4, 1), procs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 1; i < n; i++ {
		if got[i] != "wide" {
			t.Fatalf("listener %d got %v", i, got[i])
		}
	}
}

// TestEngineTeardownOnAbortLeavesNoDeadlock: nodes blocked mid-rendezvous
// when the round budget trips must all unwind.
func TestEngineTeardownOnAbortLeavesNoDeadlock(t *testing.T) {
	const n = 50
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = func(e Env) {
			for {
				e.Sleep()
			}
		}
	}
	c := Config{N: n, C: 2, T: 1, MaxRounds: 5}
	if _, err := Run(c, procs); err == nil {
		t.Fatal("expected ErrMaxRounds")
	}
	// Run returning at all proves the teardown; the race detector guards
	// the rest.
}

// TestAdversaryObservationContents verifies the fields the adversary sees.
type obsChecker struct {
	t    *testing.T
	fail func(string, ...any)
}

func (o *obsChecker) Plan(int) []Transmission { return []Transmission{{Channel: 1, Msg: "adv"}} }
func (o *obsChecker) Observe(obs RoundObservation) {
	if obs.Actions[0].Op != OpTransmit || obs.Actions[0].Channel != 0 {
		o.fail("action[0] = %+v", obs.Actions[0])
	}
	if obs.Actions[1].Op != OpListen {
		o.fail("action[1] = %+v", obs.Actions[1])
	}
	if len(obs.Adversarial) != 1 || obs.Adversarial[0].Channel != 1 {
		o.fail("adversarial = %+v", obs.Adversarial)
	}
	if obs.Transmitters[0] != 1 || obs.Transmitters[1] != 1 {
		o.fail("transmitters = %v", obs.Transmitters)
	}
	if obs.Delivered[0] != "honest" || obs.Delivered[1] != "adv" {
		o.fail("delivered = %v", obs.Delivered)
	}
}

func TestAdversaryObservationContents(t *testing.T) {
	checker := &obsChecker{t: t}
	var failures []string
	checker.fail = func(format string, args ...any) {
		failures = append(failures, format)
	}
	procs := []Process{
		func(e Env) { e.Transmit(0, "honest") },
		func(e Env) { e.Listen(0) },
	}
	c := cfg(2, 2, 1)
	c.Adversary = checker
	if _, err := Run(c, procs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(failures) != 0 {
		t.Fatalf("observation mismatches: %v", failures)
	}
}

// TestNilMessageTransmissionStillOccupiesChannel: pure jamming by honest
// nodes (nil payload) collides like any transmission.
func TestNilMessageTransmissionStillOccupiesChannel(t *testing.T) {
	var got Message = "sentinel"
	procs := []Process{
		func(e Env) { e.Transmit(0, nil) },
		func(e Env) { e.Transmit(0, "data") },
		func(e Env) { got = e.Listen(0) },
	}
	res, err := Run(cfg(3, 2, 1), procs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != nil || res.Collisions != 1 {
		t.Fatalf("got %v, collisions %d", got, res.Collisions)
	}
}
