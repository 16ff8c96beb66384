package radio_test

// Fault-injection engine tests: churn silencing, loss-model drops, fault
// observability, and same-seed determinism of faulted runs. The
// disabled-fault path is pinned separately by the golden equivalence
// suite (the Faults field stays nil there) and by the benchwork
// zero-allocation assertion.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"securadio/internal/fault"
	"securadio/internal/radio"
)

func TestFaultDeafListener(t *testing.T) {
	// All nodes late-join with horizon 2: every node is down in round 0
	// and (depending on the draw) possibly round 1+. With LateFrac 1 and
	// Horizon 1 the window is [0, 1): down exactly in round 0.
	plan := fault.MustCompile(fault.Profile{LateFrac: 1, Horizon: 1}, 2, 2, 5)
	got := make([]radio.Message, 2)
	procs := []radio.Process{
		func(e radio.Env) {
			e.Transmit(0, "hello") // round 0: suppressed (node down)
			e.Transmit(0, "again") // round 1: delivered (node up)
		},
		func(e radio.Env) {
			got[0] = e.Listen(0) // round 0: deaf + suppressed sender
			got[1] = e.Listen(0) // round 1: clean delivery
		},
	}
	res, err := radio.Run(radio.Config{N: 2, C: 2, T: 0, Seed: 1, Faults: plan}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != nil {
		t.Fatalf("round 0: down listener heard %v, want nil", got[0])
	}
	if got[1] != "again" {
		t.Fatalf("round 1: recovered listener heard %v, want %q", got[1], "again")
	}
	if res.HonestTransmissions != 1 {
		t.Fatalf("HonestTransmissions = %d, want 1 (round-0 transmit suppressed)", res.HonestTransmissions)
	}
	c := plan.Counters()
	if c.Drops != 1 {
		t.Fatalf("Drops = %d, want 1 suppressed transmission", c.Drops)
	}
	if c.DegradedRounds != 1 {
		t.Fatalf("DegradedRounds = %d, want 1", c.DegradedRounds)
	}
	if c.NodesLost != 0 {
		t.Fatalf("NodesLost = %d, want 0 (late joins are not crashes)", c.NodesLost)
	}
}

func TestFaultChannelDropsEverything(t *testing.T) {
	// DropGood = DropBad = 1: every delivery is erased, but the protocol
	// still runs in lock-step and terminates.
	loss := &fault.LossModel{PGoodBad: 0.5, PBadGood: 0.5, DropGood: 1, DropBad: 1}
	plan := fault.MustCompile(fault.Profile{Loss: loss}, 2, 2, 9)
	const rounds = 20
	heard := 0
	procs := []radio.Process{
		func(e radio.Env) {
			for r := 0; r < rounds; r++ {
				e.Transmit(0, r)
			}
		},
		func(e radio.Env) {
			for r := 0; r < rounds; r++ {
				if e.Listen(0) != nil {
					heard++
				}
			}
		},
	}
	res, err := radio.Run(radio.Config{N: 2, C: 2, T: 0, Seed: 2, Faults: plan}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if heard != 0 {
		t.Fatalf("listener heard %d messages through a 100%%-loss channel", heard)
	}
	if res.HonestTransmissions != rounds {
		t.Fatalf("HonestTransmissions = %d, want %d (loss drops deliveries, not transmissions)", res.HonestTransmissions, rounds)
	}
	c := plan.Counters()
	if c.Drops != rounds {
		t.Fatalf("Drops = %d, want %d", c.Drops, rounds)
	}
	if c.DegradedRounds != rounds {
		t.Fatalf("DegradedRounds = %d, want %d", c.DegradedRounds, rounds)
	}
}

// spoofOnce transmits one spoof on channel 0 in round 0.
type spoofOnce struct{}

func (spoofOnce) Plan(round int) []radio.Transmission {
	if round == 0 {
		return []radio.Transmission{{Channel: 0, Msg: "spoof"}}
	}
	return nil
}
func (spoofOnce) Observe(radio.RoundObservation) {}

func TestFaultDroppedSpoofNotCounted(t *testing.T) {
	loss := &fault.LossModel{DropGood: 1, DropBad: 1}
	plan := fault.MustCompile(fault.Profile{Loss: loss}, 1, 2, 3)
	procs := []radio.Process{func(e radio.Env) { e.Listen(0) }}
	res, err := radio.Run(radio.Config{N: 1, C: 2, T: 1, Seed: 3, Adversary: spoofOnce{}, Faults: plan}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpoofDeliveries != 0 {
		t.Fatalf("SpoofDeliveries = %d, want 0: the spoof was dropped before reaching any radio", res.SpoofDeliveries)
	}
	if plan.Counters().Drops != 1 {
		t.Fatalf("Drops = %d, want 1", plan.Counters().Drops)
	}
}

func TestFaultObservationFields(t *testing.T) {
	plan := fault.MustCompile(fault.Profile{
		LateFrac: 1, Horizon: 1,
		Loss: &fault.LossModel{DropGood: 1, DropBad: 1},
	}, 2, 2, 7)
	var sawDown, sawDrop bool
	cfg := radio.Config{
		N: 2, C: 2, T: 0, Seed: 4, Faults: plan,
		Trace: func(o radio.RoundObservation) {
			if o.Down == nil || o.Faded == nil || o.Dropped == nil {
				t.Errorf("round %d: fault masks missing: down=%v faded=%v dropped=%v",
					o.Round, o.Down, o.Faded, o.Dropped)
			}
			if o.Round == 0 && o.Down.Get(0) && o.Down.Get(1) && o.Deaths == 2 {
				sawDown = true
			}
			if o.Dropped.Get(0) {
				sawDrop = true
				if o.FaultDrops == 0 {
					t.Errorf("round %d: Dropped set but FaultDrops = 0", o.Round)
				}
			}
		},
	}
	procs := []radio.Process{
		func(e radio.Env) {
			e.Sleep()          // round 0: down
			e.Transmit(0, "m") // round 1: up, but dropped by the loss model
		},
		func(e radio.Env) { e.Sleep(); e.Listen(0) },
	}
	if _, err := radio.Run(cfg, procs); err != nil {
		t.Fatal(err)
	}
	if !sawDown {
		t.Error("no observation carried the round-0 all-down mask and death count")
	}
	if !sawDrop {
		t.Error("no observation carried a Dropped channel")
	}
}

func TestFaultDisabledObservationFieldsNil(t *testing.T) {
	cfg := radio.Config{
		N: 2, C: 2, T: 0, Seed: 5,
		Trace: func(o radio.RoundObservation) {
			if o.Down != nil || o.Faded != nil || o.Dropped != nil || o.FaultDrops != 0 || o.Deaths != 0 || o.Recoveries != 0 {
				t.Errorf("round %d: fault fields set on a fault-free run", o.Round)
			}
		},
	}
	procs := []radio.Process{
		func(e radio.Env) { e.Transmit(0, 1) },
		func(e radio.Env) { e.Listen(0) },
	}
	if _, err := radio.Run(cfg, procs); err != nil {
		t.Fatal(err)
	}
}

func TestFaultConfigValidate(t *testing.T) {
	plan := fault.MustCompile(fault.Profile{CrashFrac: 0.5}, 8, 3, 1)
	cfg := radio.Config{N: 4, C: 3, T: 0, Seed: 1, Faults: plan}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a plan compiled for a different N")
	}
	cfg.N = 8
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// faultedDigest runs a mixed workload under a churn+loss plan and digests
// the complete observable output, fault fields included.
func faultedDigest(t *testing.T, seed int64) string {
	t.Helper()
	const n, c, rounds = 10, 3, 120
	plan, err := fault.Compile(fault.Profile{
		CrashFrac: 0.2, RecoverFrac: 0.1, LateFrac: 0.1, Horizon: 80,
		Loss: &fault.LossModel{PGoodBad: 0.15, PBadGood: 0.35, DropGood: 0.02, DropBad: 0.7},
	}, n, c, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	digest := func(o radio.RoundObservation) {
		digestFaultObservation(h, o)
	}
	procs := make([]radio.Process, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			for r := 0; r < rounds; r++ {
				switch e.Rand().Intn(3) {
				case 0:
					e.Transmit(e.Rand().Intn(e.C()), i*1000+r)
				case 1:
					e.Listen(e.Rand().Intn(e.C()))
				default:
					e.Sleep()
				}
			}
		}
	}
	res, err := radio.Run(radio.Config{N: n, C: c, T: 1, Seed: seed, Faults: plan, Trace: digest}, procs)
	fmt.Fprintf(h, "result=%+v err=%v counters=%+v\n", res, err, plan.Counters())
	return hex.EncodeToString(h.Sum(nil))
}

func digestFaultObservation(h hash.Hash, o radio.RoundObservation) {
	fmt.Fprintf(h, "round=%d drops=%d deaths=%d rec=%d\n", o.Round, o.FaultDrops, o.Deaths, o.Recoveries)
	for id, a := range o.Actions {
		fmt.Fprintf(h, "  act[%d]=%d ch=%d msg=%v down=%v\n", id, int(a.Op), a.Channel, a.Msg, o.Down.Get(id))
	}
	for c, m := range o.Delivered {
		fmt.Fprintf(h, "  del[%d]=%v n=%d faded=%v dropped=%v\n", c, m, o.Transmitters[c],
			o.Faded.Get(c), o.Dropped.Get(c))
	}
}

func TestFaultDeterminismSameSeed(t *testing.T) {
	if d1, d2 := faultedDigest(t, 31), faultedDigest(t, 31); d1 != d2 {
		t.Fatalf("faulted run nondeterministic: %s then %s", d1, d2)
	}
}
