// Package udp is the socket-backed radio transport: every logical
// channel is one UDP socket (a "hub") bound to an ephemeral port on
// 127.0.0.1, and each committed transmission becomes one datagram sent
// to its channel's hub. The engine keeps the round lock-step; the
// backend resolves what the medium actually carried.
//
// Datagrams carry only the transmission envelope — round, origin,
// channel — and the payload is resolved from the committing process's
// memory, so arbitrary simulation Messages never need wire
// serialization. The round field doubles as the round-sync beacon:
// receivers discard envelopes from any round other than the one being
// committed, so a datagram that straggles past its receive window can
// never corrupt a later round.
//
// Determinism over sockets is necessarily two-tier:
//
//   - injected degradation (Config.Loss, Config.Jam) is a pure function
//     of (seed, round, channel, origin), so seeded runs reproduce
//     byte-identical degradation decisions across invocations;
//   - genuine medium behavior — a datagram the kernel dropped, or one
//     that missed the receive window — is environmental. It surfaces
//     through ChannelOutcome.Dropped (never silently), but its timing
//     is not reproducible.
//
// On loopback with a generous receive buffer the environmental tier is
// quiet, which is what makes the cross-transport conformance suite's
// tolerance bands tight.
package udp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"securadio/internal/radio"
)

// Defaults for Config zero values.
const (
	// DefaultWindow is the receive-window cutoff: how long Commit waits
	// for in-flight datagrams after the last send before declaring the
	// stragglers lost.
	DefaultWindow = 250 * time.Millisecond

	// DefaultReadBuffer is the per-hub socket receive buffer.
	DefaultReadBuffer = 1 << 20
)

// JamWindow jams one channel for a half-open round interval: every
// round r with From <= r < To resolves the channel as unusable (Faded,
// nothing delivered), regardless of traffic.
type JamWindow struct {
	Channel  int
	From, To int
}

// Config tunes the backend. The zero value is a lossless, jam-free
// medium with the default receive window.
type Config struct {
	// Loss is the injected datagram-loss probability in [0, 1]. The
	// decision is a pure function of (seed, round, channel, origin), so
	// seeded runs reproduce exactly.
	Loss float64

	// Jam holds the injected jam windows.
	Jam []JamWindow

	// Window is the receive-window cutoff (0 selects DefaultWindow).
	Window time.Duration

	// ReadBuffer is the per-hub socket receive buffer in bytes (0
	// selects DefaultReadBuffer).
	ReadBuffer int
}

// Validate reports whether the backend configuration is well formed.
func (c Config) Validate() error {
	if c.Loss < 0 || c.Loss > 1 {
		return fmt.Errorf("udp: loss = %v, want in [0, 1]", c.Loss)
	}
	if c.Window < 0 {
		return fmt.Errorf("udp: window = %v, want >= 0", c.Window)
	}
	if c.ReadBuffer < 0 {
		return fmt.Errorf("udp: read buffer = %d, want >= 0", c.ReadBuffer)
	}
	for i, w := range c.Jam {
		if w.Channel < 0 {
			return fmt.Errorf("udp: jam[%d]: channel = %d, want >= 0", i, w.Channel)
		}
		if w.To < w.From {
			return fmt.Errorf("udp: jam[%d]: rounds [%d, %d), want From <= To", i, w.From, w.To)
		}
	}
	return nil
}

// Transport is the UDP-backed radio.Transport.
type Transport struct{ cfg Config }

// New returns a UDP transport with the given tuning, or an error when
// the configuration is malformed.
func New(cfg Config) (*Transport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.ReadBuffer == 0 {
		cfg.ReadBuffer = DefaultReadBuffer
	}
	return &Transport{cfg: cfg}, nil
}

// Name implements radio.Transport.
func (t *Transport) Name() string { return "udp" }

// Open implements radio.Transport: it binds one hub socket per channel
// plus a sender socket, and starts one reader goroutine per hub.
func (t *Transport) Open(rcfg radio.Config) (radio.Conn, error) {
	conn := &Conn{
		cfg:   t.cfg,
		seed:  rcfg.Seed,
		c:     rcfg.C,
		recvq: make(chan envelope, 4096),
		done:  make(chan struct{}),
	}
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
	for c := 0; c < rcfg.C; c++ {
		hub, err := net.ListenUDP("udp4", loop)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("udp: bind hub for channel %d: %w", c, err)
		}
		// A generous kernel buffer keeps the environmental loss tier
		// quiet on loopback; a failure to resize is not fatal.
		_ = hub.SetReadBuffer(t.cfg.ReadBuffer)
		conn.hubs = append(conn.hubs, hub)
		conn.addrs = append(conn.addrs, hub.LocalAddr().(*net.UDPAddr))
	}
	sender, err := net.ListenUDP("udp4", loop)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("udp: bind sender: %w", err)
	}
	conn.sender = sender
	conn.wg.Add(len(conn.hubs))
	for _, hub := range conn.hubs {
		go conn.readLoop(hub)
	}
	return conn, nil
}

// envelope is the 12-byte wire format: round, origin, channel, each a
// little-endian 32-bit integer. From is the node ID or
// radio.AdversaryOrigin.
type envelope struct {
	round   uint32
	from    int32
	channel int32
}

const envelopeSize = 12

// appendEnvelope appends the wire envelope for one transmission —
// round, origin, channel as little-endian 32-bit integers — to b.
func appendEnvelope(b []byte, round, from, channel int) []byte {
	var buf [envelopeSize]byte
	binary.LittleEndian.PutUint32(buf[0:4], uint32(round))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(int32(from)))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(int32(channel)))
	return append(b, buf[:]...)
}

// parseEnvelope decodes one envelope datagram into (round, from,
// channel); ok is false when the payload is not exactly one envelope.
func parseEnvelope(b []byte) (env [3]int, ok bool) {
	if len(b) != envelopeSize {
		return env, false
	}
	env[0] = int(binary.LittleEndian.Uint32(b[0:4]))
	env[1] = int(int32(binary.LittleEndian.Uint32(b[4:8])))
	env[2] = int(int32(binary.LittleEndian.Uint32(b[8:12])))
	return env, true
}

// errClosed reports Commit on a closed Conn (including a Close that
// raced an in-flight Commit — the mid-round cancellation path).
var errClosed = errors.New("udp: transport closed")

// Conn is one run's bound socket group.
type Conn struct {
	cfg  Config
	seed int64
	c    int

	hubs   []*net.UDPConn
	addrs  []*net.UDPAddr
	sender *net.UDPConn

	recvq chan envelope
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	// Commit-local scratch, reused across rounds.
	out  []radio.ChannelOutcome
	seen map[uint64]bool
}

// readLoop drains one hub socket into the shared receive queue until
// the socket closes.
func (conn *Conn) readLoop(hub *net.UDPConn) {
	defer conn.wg.Done()
	var buf [64]byte
	for {
		n, err := hub.Read(buf[:])
		if err != nil {
			return // socket closed (or unrecoverable): Close tears us down
		}
		raw, ok := parseEnvelope(buf[:n])
		if !ok {
			continue // not ours; ignore
		}
		env := envelope{round: uint32(raw[0]), from: int32(raw[1]), channel: int32(raw[2])}
		select {
		case conn.recvq <- env:
		case <-conn.done:
			return
		}
	}
}

// Commit implements radio.Conn: it sends one datagram per committed
// transmission to the channel hubs, collects arrivals until every
// expected envelope is in or the receive window lapses, and resolves
// the per-channel outcomes from the survivors.
func (conn *Conn) Commit(round int, txs []radio.WireTx) ([]radio.ChannelOutcome, error) {
	select {
	case <-conn.done:
		return nil, errClosed
	default:
	}

	// Send phase: envelope only; payloads stay in process memory and
	// are resolved below by (from, channel) match.
	var buf [envelopeSize]byte
	for i := range txs {
		tx := &txs[i]
		env := appendEnvelope(buf[:0], round, tx.From, tx.Channel)
		if _, err := conn.sender.WriteToUDP(env, conn.addrs[tx.Channel]); err != nil {
			select {
			case <-conn.done:
				return nil, errClosed
			default:
			}
			return nil, fmt.Errorf("udp: send round %d: %w", round, err)
		}
	}

	// Collect phase: early-exit as soon as every expected envelope has
	// arrived; otherwise the receive window bounds the wait, so rounds
	// terminate deterministically even when the medium eats datagrams.
	if conn.seen == nil {
		conn.seen = make(map[uint64]bool, len(txs))
	}
	clear(conn.seen)
	seen := conn.seen
	if len(txs) > 0 {
		timer := time.NewTimer(conn.cfg.Window)
		defer timer.Stop()
	collect:
		for len(seen) < len(txs) {
			select {
			case env := <-conn.recvq:
				if int(env.round) != round {
					continue // straggler from a finished round
				}
				key := envKey(int(env.from), int(env.channel))
				if seen[key] {
					continue // duplicate datagram
				}
				seen[key] = true
			case <-timer.C:
				break collect // window cutoff: stragglers count as lost
			case <-conn.done:
				return nil, errClosed
			}
		}
	}

	// Resolve phase: injected loss erases arrivals (a pure function of
	// seed/round/channel/origin, so seeded runs reproduce), jam windows
	// mute whole channels, and the survivors resolve with the reference
	// collision semantics. Outcomes sort by channel so arrival order —
	// the one genuinely nondeterministic input — never reaches the
	// engine.
	out := conn.out[:0]
	idx := func(c int) int {
		for j := range out {
			if out[j].Channel == c {
				return j
			}
		}
		out = append(out, radio.ChannelOutcome{Channel: c})
		return len(out) - 1
	}
	for i := range txs {
		tx := &txs[i]
		j := idx(tx.Channel)
		if !seen[envKey(tx.From, tx.Channel)] || conn.dropNow(round, tx.Channel, tx.From) {
			out[j].Dropped = true // lost by the medium or erased by injection
			continue
		}
		out[j].Transmitters++
		if out[j].Transmitters == 1 {
			out[j].From, out[j].Msg = tx.From, tx.Msg
		} else {
			out[j].Msg = nil // collision
		}
	}
	for _, w := range conn.cfg.Jam {
		if round < w.From || round >= w.To || w.Channel >= conn.c {
			continue
		}
		j := idx(w.Channel)
		out[j].Faded = true
		out[j].Msg = nil // a jammed channel delivers nothing
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Channel < out[b].Channel })
	conn.out = out
	return out, nil
}

// Close implements radio.Conn: idempotent, safe concurrently with
// Commit, and unblocks an in-flight Commit by closing every socket and
// the done channel the collect loop selects on.
func (conn *Conn) Close() error {
	conn.once.Do(func() {
		close(conn.done)
		for _, hub := range conn.hubs {
			hub.Close()
		}
		if conn.sender != nil {
			conn.sender.Close()
		}
	})
	conn.wg.Wait()
	return nil
}

// envKey packs (from, channel) into one map key. From is at least
// radio.AdversaryOrigin (-1), so the shifted int32 round-trips.
func envKey(from, channel int) uint64 {
	return uint64(uint32(int32(from)))<<32 | uint64(uint32(int32(channel)))
}

// dropNow is the Conn-local view of dropDecision.
func (conn *Conn) dropNow(round, channel, from int) bool {
	return dropDecision(conn.seed, round, channel, from, conn.cfg.Loss)
}

// dropDecision is the injected-loss decision: a splitmix64 hash of
// (seed, round, channel, origin) mapped to [0, 1) and compared to loss.
// Pure — never dependent on traffic or arrival order — so seeded runs
// reproduce byte-identical degradation across invocations.
func dropDecision(seed int64, round, channel, from int, loss float64) bool {
	if loss <= 0 {
		return false
	}
	x := uint64(seed)
	x ^= uint64(round)*0x9e3779b97f4a7c15 + uint64(int64(channel))<<32 + uint64(uint32(int32(from)))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < loss
}
