// Package radio implements the synchronous, single-hop, multi-channel radio
// network model of Dolev, Gilbert, Guerraoui and Newport, "Secure
// Communication Over Radio Channels" (PODC 2008), Section 3.
//
// The network has n nodes and C > 1 channels and proceeds in synchronous
// rounds. In each round every node either transmits on a single channel,
// listens on a single channel, or sleeps. If exactly one participant
// (honest node or adversary) transmits on a channel, every listener on that
// channel receives the transmission; if zero or two-or-more transmit, the
// listeners receive nothing. Nodes cannot detect collisions: silence and
// collision are indistinguishable.
//
// A malicious adversary may transmit on up to t < C channels per round and
// listens on all C channels. It can therefore jam (collide with an honest
// broadcast) and spoof (inject a fabricated message on an otherwise idle
// channel). The adversary does not see the current round's honest choices
// when committing its transmissions, but at the end of each round it
// observes everything that happened, including which random choices the
// honest nodes made.
//
// Node programs are ordinary Go functions (Process values) that interact
// with the network through a blocking Env handle.
//
// # Scheduler
//
// The model is a synchronous round in which every node takes exactly one
// action, and the engine has one drive to match, the pump. Every node
// Process runs as a coroutine, and each round proceeds as follows:
//
//   - the engine resumes every live node in ID order; each writes its
//     committed NodeAction into its private slot of a shared actions table
//     and suspends;
//   - the engine then resolves the round on Run's own goroutine: actions
//     are collected in node-ID order (which makes every execution a pure
//     function of Config.Seed), the adversary's clipped transmissions are
//     merged in, collision semantics produce the per-channel deliveries,
//     and the adversary and any Trace hook observe the round;
//   - when the engine next resumes a node, it reads its own delivery
//     directly from the per-channel slots, which stay stable until the
//     next round resolves.
//
// Node programs therefore run one at a time, with no locks and no
// goroutine parking, and a run uses one core at any GOMAXPROCS; callers
// that want parallelism run several runs at once.
//
// Resolution is sparse, so the large regime (N in the thousands, C in
// the hundreds) is first-class:
//
//   - a touched-channel list records which channels saw a transmission
//     this round; delivery, fault drops and the per-channel clear all
//     iterate that list, making the channel phases O(active
//     transmissions) rather than O(C). The clear is deferred to the
//     start of the NEXT round's resolution because nodes read their
//     delivery slots after the round resolves;
//   - a live-node roster, compacted in place as nodes finish (stable, so
//     ascending-ID iteration order is preserved), keeps the per-round
//     action scan proportional to nodes still running. A node downed by
//     fault churn stays on the roster — down is not done;
//   - channel masks (adversary budget clipping, the fault layer's
//     down/fade/drop masks, RoundObservation) are multi-word bitsets
//     (internal/bitset) pooled with the rest of the engine scratch, so
//     crossing the 64-channel boundary changes neither semantics nor the
//     allocation budget.
//
// The golden equivalence suite pins the engine's traces against the seed
// engine's. The steady-state round loop performs zero heap allocations on
// both sides of the 64-channel boundary, and engine scratch (slots,
// buffers, touched list, roster, per-node RNG state) is recycled across
// runs, so campaign-scale callers do not churn the GC.
//
// Teardown is uniform: aborts (round budget, invalid actions, checkpoint
// violations) unwind every node and Run never leaks goroutines. Panics in
// adversary or Trace callbacks propagate to Run's caller; panics in node
// Processes crash the process, exactly as when each node owned a
// goroutine in the seed engine.
//
// # Transports
//
// The medium itself is pluggable behind the Transport interface
// (Config.Transport): per round, the engine hands the transport the
// complete committed transmission set — honest and adversarial — and
// the transport returns one ChannelOutcome per channel that carried
// traffic; the engine then applies the model's collision, spoof and
// fault-drop semantics to those survivors. The contract a backend must
// honor: outcomes only for channels in the committed set, Transmitters
// and Msg describe traffic that SURVIVED the medium, Dropped marks a
// channel-round on which the medium erased at least one transmission
// (surfacing in Result.TransportDrops, never silently), and Close must
// unblock a Commit in flight — the engine cancels mid-round by closing
// the connection. A nil Config.Transport selects the native in-memory
// path, byte-identical to the pre-seam engine; the Loopback transport
// routes Commit through the same exported resolution the native path
// uses (ResolveLocal), which is what the byte-identity tests pin.
// Backends live in internal/transport (udp: real loopback sockets with
// seeded loss/jam injection; testnet: multi-process lockstep
// replication).
package radio
