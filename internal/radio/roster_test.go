package radio_test

import (
	"fmt"
	"testing"

	"securadio/internal/fault"
	"securadio/internal/radio"
)

// The roster tests pin the live-node list's edge cases: nodes leaving the
// roster in the same round others checkpoint, whole-population finishes,
// and the distinction between churn-down (stays on the roster, may
// recover) and protocol-done (leaves it for good).

func TestRosterFinishDuringCheckpointRound(t *testing.T) {
	// Nodes 2 and 3 finish in exactly the round nodes 0 and 1 checkpoint.
	// A finishing node must neither trip the checkpoint mixed-op check nor
	// linger on the roster afterwards.
	t.Run("pump", func(t *testing.T) {
		var lives []int
		cfg := radio.Config{
			N: 4, C: 2, T: 0, Seed: 9,
			Trace: func(o radio.RoundObservation) {
				live := 0
				for _, a := range o.Actions {
					if a.Op != 0 { // zeroed slot = finished node
						live++
					}
				}
				lives = append(lives, live)
			},
		}
		procs := []radio.Process{
			func(e radio.Env) { e.Sleep(); e.Checkpoint("sync"); e.Listen(0); e.Listen(1) },
			func(e radio.Env) { e.Sleep(); e.Checkpoint("sync"); e.Transmit(0, "m"); e.Sleep() },
			func(e radio.Env) { e.Sleep() }, // finishes as the others checkpoint
			func(e radio.Env) { e.Sleep() },
		}
		res, err := radio.Run(cfg, procs)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{4, 2, 2, 2}
		if fmt.Sprint(lives) != fmt.Sprint(want) {
			t.Fatalf("live counts per round = %v, want %v", lives, want)
		}
		if res.Rounds != 4 {
			t.Fatalf("Rounds = %d, want 4", res.Rounds)
		}
	})
}

func TestRosterAllFinishSameRound(t *testing.T) {
	// The whole population finishes together: the next resolution sees an
	// empty roster and ends the run with exactly the rounds that executed.
	t.Run("pump", func(t *testing.T) {
		const n, rounds = 8, 5
		procs := make([]radio.Process, n)
		for i := 0; i < n; i++ {
			procs[i] = func(e radio.Env) {
				for r := 0; r < rounds; r++ {
					e.Sleep()
				}
			}
		}
		res, err := radio.Run(radio.Config{N: n, C: 2, T: 0, Seed: 3}, procs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != rounds {
			t.Fatalf("Rounds = %d, want %d", res.Rounds, rounds)
		}
	})
}

func TestRosterChurnDownIsNotDone(t *testing.T) {
	// A churned-down node must stay on the roster: it keeps consuming
	// rounds while silenced and transmits normally after recovering. With
	// Horizon 4, LateFrac 1 silences every node in round 0 only.
	plan := fault.MustCompile(fault.Profile{LateFrac: 1, Horizon: 4}, 2, 2, 11)
	var heard []radio.Message
	procs := []radio.Process{
		func(e radio.Env) {
			e.Transmit(0, "early") // round 0: suppressed, node is down
			e.Transmit(0, "late")  // round 1: recovered, delivers
		},
		func(e radio.Env) {
			heard = append(heard, e.Listen(0)) // round 0: deaf
			heard = append(heard, e.Listen(0)) // round 1: hears "late"
		},
	}
	res, err := radio.Run(radio.Config{N: 2, C: 2, T: 0, Seed: 8, Faults: plan}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if heard[0] != nil || heard[1] != "late" {
		t.Fatalf("heard = %v, want [<nil> late]", heard)
	}
	if res.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2: down nodes still consume rounds", res.Rounds)
	}
	if plan.Counters().Drops != 1 {
		t.Fatalf("Drops = %d, want 1 (the suppressed round-0 transmission)", plan.Counters().Drops)
	}
}

// TestLargeRegimeSmoke drives a large-regime shape — N in the thousands,
// C in the hundreds, jamming plus churn and bursty loss — through the
// engine and checks the run is complete and non-degenerate. CI runs it
// under the race detector, so every roster compaction, touched-channel
// clear and bitset mask write crosses the checker at realistic scale.
func TestLargeRegimeSmoke(t *testing.T) {
	const n, c, tBudget, rounds = 1024, 128, 8, 48
	procs := make([]radio.Process, n)
	for j := 0; j < n; j++ {
		j := j
		procs[j] = func(e radio.Env) {
			for r := 0; r < rounds; r++ {
				switch {
				case j%97 == 0:
					e.Transmit((j+3*r)%c, j)
				case j%5 == 0:
					e.Sleep()
				default:
					e.Listen((j + r) % c)
				}
			}
		}
	}
	plan := fault.MustCompile(fault.Profile{
		CrashFrac: 0.05, RecoverFrac: 0.05, LateFrac: 0.05, Horizon: rounds,
		Loss: &fault.LossModel{PGoodBad: 0.1, PBadGood: 0.3, DropGood: 0.01, DropBad: 0.6},
	}, n, c, 77)
	jam := &sweepingJammer{t: tBudget, c: c}
	cfg := radio.Config{N: n, C: c, T: tBudget, Seed: 19, Adversary: jam, Faults: plan}
	res, err := radio.Run(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds {
		t.Fatalf("Rounds = %d, want %d", res.Rounds, rounds)
	}
	if res.HonestTransmissions == 0 || res.AdversarialTransmissions == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
}

// sweepingJammer rotates its full budget across the spectrum without
// allocating per round.
type sweepingJammer struct {
	t, c int
	plan []radio.Transmission
}

func (j *sweepingJammer) Plan(round int) []radio.Transmission {
	if j.plan == nil {
		j.plan = make([]radio.Transmission, j.t)
	}
	for i := range j.plan {
		j.plan[i] = radio.Transmission{Channel: (round*7 + i*17) % j.c, Msg: "jam"}
	}
	return j.plan
}

func (j *sweepingJammer) Observe(radio.RoundObservation) {}
