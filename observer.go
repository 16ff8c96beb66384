package securadio

import (
	"securadio/internal/radio"
)

// ChannelActivity is one channel's activity in one round, as seen by an
// omnipresent receiver — the per-round spectrum picture that operational
// radio monitoring treats as the primary experimental instrument.
type ChannelActivity struct {
	// Transmitters is the total number of simultaneous transmitters on the
	// channel (honest plus adversarial).
	Transmitters int

	// Listeners is the number of honest nodes tuned to the channel.
	Listeners int

	// Jammed reports that the adversary transmitted on the channel
	// (jamming or spoofing — the physical layer cannot tell them apart).
	Jammed bool

	// Collision reports that two or more transmitters collided, destroying
	// the channel for this round.
	Collision bool

	// Delivered reports that a message reached the channel's listeners.
	Delivered bool

	// Spoofed reports that the delivered message originated from the
	// adversary (Delivered with the adversary as sole transmitter).
	Spoofed bool

	// Faded reports that the fault layer's Gilbert-Elliott loss model had
	// the channel in its bad (burst) state this round. Always false
	// without an active fault profile (see WithFaults).
	Faded bool

	// Dropped reports that the fault layer destroyed a delivery on the
	// channel this round: a message cleared collision resolution and was
	// then lost. Always false without an active fault profile.
	Dropped bool
}

// RoundEvent is one round of the event stream a Runner feeds its
// Observer: the complete per-channel spectrum activity plus the protocol
// phase bookkeeping derived from checkpoint barriers.
//
// The Channels slice is owned by the Runner and reused between rounds; an
// Observer that retains data across calls must copy what it needs.
type RoundEvent struct {
	// Round is the radio round index (0-based, per run).
	Round int

	// Phase is the protocol phase in effect when the round ran: the tag of
	// the most recent checkpoint barrier the protocol crossed, or "" before
	// the first one. Protocol layers that define no checkpoints leave it
	// empty for the whole run.
	Phase string

	// Checkpoint is the checkpoint barrier tag when this round was a
	// phase-transition round (every live node checkpointed with this tag),
	// and "" otherwise. Subsequent rounds report the tag as their Phase.
	Checkpoint string

	// Live is the number of nodes whose protocol was still running when
	// the round resolved.
	Live int

	// Channels holds the per-channel activity, indexed by channel.
	Channels []ChannelActivity

	// DownNodes is the number of nodes the fault layer silenced this
	// round, and Deaths / Recoveries count this round's churn
	// transitions. All zero without an active fault profile (see
	// WithFaults).
	DownNodes  int
	Deaths     int
	Recoveries int

	// FaultDrops is the number of deliveries the fault layer destroyed
	// this round — channel-loss drops plus transmissions suppressed from
	// silenced nodes. Zero without an active fault profile.
	FaultDrops int
}

// Observer receives the streaming per-round event feed of a Runner. The
// stream is deterministic: for a fixed Network, set of RunnerOptions and
// workload it is identical across runs and worker schedules.
//
// Observation is purely passive — an Observer cannot influence the run —
// and a nil Observer is free: the engine skips event assembly entirely,
// preserving the zero-allocation steady-state round loop.
type Observer interface {
	// ObserveRound is called once per resolved radio round, in round
	// order, on the goroutine resolving the round. The event and its
	// slices are only valid during the call.
	ObserveRound(ev *RoundEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev *RoundEvent)

// ObserveRound calls f.
func (f ObserverFunc) ObserveRound(ev *RoundEvent) { f(ev) }

// eventAdapter translates the engine's internal trace stream into the
// public RoundEvent stream, reusing one event and one channel slice for
// the whole run.
type eventAdapter struct {
	obs   Observer
	ev    RoundEvent
	phase string
}

// trace returns the radio-level trace hook feeding obs, or nil for a nil
// observer — the zero-cost fast path: with a nil Trace (and no adversary)
// the engine never assembles a RoundObservation at all.
func (r *Runner) trace() func(radio.RoundObservation) {
	if r.obs == nil {
		return nil
	}
	a := &eventAdapter{obs: r.obs}
	return a.observe
}

// observe converts one engine observation into a RoundEvent.
func (a *eventAdapter) observe(o radio.RoundObservation) {
	if cap(a.ev.Channels) < len(o.Delivered) {
		a.ev.Channels = make([]ChannelActivity, len(o.Delivered))
	}
	chans := a.ev.Channels[:len(o.Delivered)]
	clear(chans)

	for _, tx := range o.Adversarial {
		chans[tx.Channel].Jammed = true
	}
	live, checkpoint := 0, ""
	for _, act := range o.Actions {
		switch act.Op {
		case radio.OpListen:
			chans[act.Channel].Listeners++
			live++
		case radio.OpCheckpoint:
			// The engine enforces that checkpoint rounds are uniform
			// across live nodes, so any one action carries the tag.
			checkpoint = act.Tag
			live++
		case radio.OpTransmit, radio.OpSleep:
			live++
		}
	}
	for c := range chans {
		ch := &chans[c]
		ch.Transmitters = o.Transmitters[c]
		ch.Collision = o.Transmitters[c] > 1
		ch.Delivered = o.Delivered[c] != nil
		ch.Spoofed = ch.Delivered && o.Transmitters[c] == 1 && ch.Jammed
		// Get on an absent (nil) mask reads false, so no nil guard needed.
		ch.Faded = o.Faded.Get(c)
		ch.Dropped = o.Dropped.Get(c)
	}

	down := o.Down.Count()

	a.ev.Round = o.Round
	a.ev.Phase = a.phase
	a.ev.Checkpoint = checkpoint
	a.ev.Live = live
	a.ev.Channels = chans
	a.ev.DownNodes = down
	a.ev.Deaths = o.Deaths
	a.ev.Recoveries = o.Recoveries
	a.ev.FaultDrops = o.FaultDrops
	a.obs.ObserveRound(&a.ev)
	if checkpoint != "" {
		a.phase = checkpoint
	}
}
