package radio_test

// Transport plumbing tests: the Loopback backend must leave every run
// byte-identical to the native medium (the engine keeps lock-step,
// validation, churn and the adversary budget either way), transport
// failures must surface as ErrTransport without wedging the engine pool,
// and the Conn must be closed on every exit path — completion, abort,
// and context cancellation, including cancellation that lands while a
// Commit is in flight.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securadio/internal/fault"
	"securadio/internal/radio"
)

// transportDigest runs a mixed workload (optionally faulted and
// adversarial) and digests the complete observable output: every round's
// trace, fault fields included, plus the Result and error.
func transportDigest(t *testing.T, transport radio.Transport, faulted bool) string {
	t.Helper()
	const n, c, tr, rounds = 10, 4, 1, 80
	const seed = 99
	cfg := radio.Config{N: n, C: c, T: tr, Seed: seed, Transport: transport}
	if faulted {
		plan, err := fault.Compile(fault.Profile{
			CrashFrac: 0.2, RecoverFrac: 0.1, LateFrac: 0.1, Horizon: 60,
			Loss: &fault.LossModel{PGoodBad: 0.15, PBadGood: 0.35, DropGood: 0.02, DropBad: 0.7},
		}, n, c, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	h := sha256.New()
	cfg.Trace = func(o radio.RoundObservation) { digestTransportObservation(h, o) }
	cfg.Adversary = &tickJammer{c: c}
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
	res, err := radio.Run(cfg, procs)
	fmt.Fprintf(h, "result=%+v err=%v\n", res, err)
	return hex.EncodeToString(h.Sum(nil))
}

func digestTransportObservation(h hash.Hash, o radio.RoundObservation) {
	fmt.Fprintf(h, "round=%d drops=%d deaths=%d rec=%d\n", o.Round, o.FaultDrops, o.Deaths, o.Recoveries)
	for id, a := range o.Actions {
		fmt.Fprintf(h, "  act[%d]=%d ch=%d msg=%v down=%v\n", id, int(a.Op), a.Channel, a.Msg, o.Down.Get(id))
	}
	for c, m := range o.Delivered {
		fmt.Fprintf(h, "  del[%d]=%v n=%d faded=%v dropped=%v\n", c, m, o.Transmitters[c],
			o.Faded.Get(c), o.Dropped.Get(c))
	}
}

// tickJammer jams a rotating channel every third round and spoofs on
// round 10, exercising both the budget clip and spoof accounting over a
// transport.
type tickJammer struct{ c int }

func (j *tickJammer) Plan(round int) []radio.Transmission {
	if round == 10 {
		return []radio.Transmission{{Channel: 0, Msg: "spoof"}}
	}
	if round%3 == 0 {
		return []radio.Transmission{{Channel: round % j.c}}
	}
	return nil
}

func (j *tickJammer) Observe(radio.RoundObservation) {}

// TestLoopbackByteIdentical pins the tentpole invariant: a run over the
// Loopback transport is byte-identical to the same run on the native
// medium, with and without a fault plan.
func TestLoopbackByteIdentical(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		t.Run(fmt.Sprintf("pump/faulted=%v", faulted), func(t *testing.T) {
			native := transportDigest(t, nil, faulted)
			loopback := transportDigest(t, radio.Loopback(), faulted)
			if native != loopback {
				t.Fatalf("loopback diverged from native medium:\n  native   %s\n  loopback %s", native, loopback)
			}
		})
	}
}

// instrumentedTransport wraps Loopback with failure injection and
// close/commit accounting.
type instrumentedTransport struct {
	openErr   error         // returned by Open
	commitErr error         // returned by Commit at failRound
	failRound int           // round at which commitErr fires
	blockAt   int           // round at which Commit blocks until Close (-1: never)
	opens     atomic.Int32  // Open calls
	closes    atomic.Int32  // Close calls
	commits   atomic.Int32  // Commit calls
	closed    chan struct{} // closed by the first Close
	once      sync.Once
}

func newInstrumented() *instrumentedTransport {
	return &instrumentedTransport{failRound: -1, blockAt: -1, closed: make(chan struct{})}
}

func (tr *instrumentedTransport) Name() string { return "instrumented" }

func (tr *instrumentedTransport) Open(cfg radio.Config) (radio.Conn, error) {
	tr.opens.Add(1)
	if tr.openErr != nil {
		return nil, tr.openErr
	}
	inner, err := radio.Loopback().Open(cfg)
	if err != nil {
		return nil, err
	}
	return &instrumentedConn{t: tr, inner: inner}, nil
}

type instrumentedConn struct {
	t     *instrumentedTransport
	inner radio.Conn
}

func (c *instrumentedConn) Commit(round int, txs []radio.WireTx) ([]radio.ChannelOutcome, error) {
	c.t.commits.Add(1)
	if c.t.commitErr != nil && round == c.t.failRound {
		return nil, c.t.commitErr
	}
	if c.t.blockAt >= 0 && round >= c.t.blockAt {
		<-c.t.closed // a real medium blocked in its receive window
		return nil, errors.New("connection closed")
	}
	return c.inner.Commit(round, txs)
}

func (c *instrumentedConn) Close() error {
	c.t.closes.Add(1)
	c.t.once.Do(func() { close(c.t.closed) })
	return c.inner.Close()
}

func constantProcs(n, rounds int) []radio.Process {
	procs := make([]radio.Process, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			for r := 0; r < rounds; r++ {
				if i%2 == 0 {
					e.Transmit(e.Rand().Intn(e.C()), r)
				} else {
					e.Listen(e.Rand().Intn(e.C()))
				}
			}
		}
	}
	return procs
}

// TestTransportOpenError pins that a failed Open aborts the run before
// any round executes, wrapped in ErrTransport.
func TestTransportOpenError(t *testing.T) {
	boom := errors.New("no such device")
	t.Run("pump", func(t *testing.T) {
		tr := newInstrumented()
		tr.openErr = boom
		_, err := radio.Run(radio.Config{N: 4, C: 2, Seed: 1, Transport: tr}, constantProcs(4, 5))
		if !errors.Is(err, radio.ErrTransport) || !errors.Is(err, boom) {
			t.Fatalf("err = %v, want ErrTransport wrapping the open error", err)
		}
		if got := tr.commits.Load(); got != 0 {
			t.Fatalf("%d commits after failed open", got)
		}
	})
}

// TestTransportCommitError pins that a mid-run Commit failure aborts the
// run through ErrTransport and still closes the Conn.
func TestTransportCommitError(t *testing.T) {
	boom := errors.New("medium vanished")
	t.Run("pump", func(t *testing.T) {
		tr := newInstrumented()
		tr.commitErr = boom
		tr.failRound = 3
		_, err := radio.Run(radio.Config{N: 4, C: 2, Seed: 1, Transport: tr}, constantProcs(4, 10))
		if !errors.Is(err, radio.ErrTransport) || !errors.Is(err, boom) {
			t.Fatalf("err = %v, want ErrTransport wrapping the commit error", err)
		}
		if tr.closes.Load() == 0 {
			t.Fatal("Conn not closed after commit failure")
		}
	})
}

// TestTransportClosedOnCompletion pins the ordinary teardown: one Open,
// at least one Close, one Commit per resolved round.
func TestTransportClosedOnCompletion(t *testing.T) {
	const rounds = 12
	t.Run("pump", func(t *testing.T) {
		tr := newInstrumented()
		res, err := radio.Run(radio.Config{N: 4, C: 2, Seed: 1, Transport: tr}, constantProcs(4, rounds))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != rounds {
			t.Fatalf("rounds = %d, want %d", res.Rounds, rounds)
		}
		if got := tr.opens.Load(); got != 1 {
			t.Fatalf("opens = %d, want 1", got)
		}
		if tr.closes.Load() == 0 {
			t.Fatal("Conn never closed")
		}
		if got := int(tr.commits.Load()); got != rounds {
			t.Fatalf("commits = %d, want one per round (%d)", got, rounds)
		}
	})
}

// TestTransportCancelMidCommit pins satellite 3's fix: canceling the
// context while a Commit is blocked on the medium must close the Conn
// (unblocking the Commit) and report ErrCanceled — the run must not wait
// out the medium.
func TestTransportCancelMidCommit(t *testing.T) {
	t.Run("pump", func(t *testing.T) {
		tr := newInstrumented()
		tr.blockAt = 2 // Commit blocks until Close from round 2 on
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		done := make(chan struct{})
		var err error
		go func() {
			defer close(done)
			_, err = radio.RunContext(ctx, radio.Config{N: 4, C: 2, Seed: 1, Transport: tr}, constantProcs(4, 10))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("canceled run did not tear down; Commit still blocked")
		}
		if !errors.Is(err, radio.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
		}
		if tr.closes.Load() == 0 {
			t.Fatal("Conn not closed on cancellation")
		}
	})
}

// TestTransportMalformedOutcome pins the engine's validation of backend
// outcomes: a channel outside [0, C) aborts the run with ErrTransport.
func TestTransportMalformedOutcome(t *testing.T) {
	tr := malformedTransport{}
	_, err := radio.Run(radio.Config{N: 2, C: 2, Seed: 1, Transport: tr}, constantProcs(2, 4))
	if !errors.Is(err, radio.ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport for an out-of-range outcome channel", err)
	}
}

type malformedTransport struct{}

func (malformedTransport) Name() string { return "malformed" }

func (malformedTransport) Open(cfg radio.Config) (radio.Conn, error) {
	return malformedConn{c: cfg.C}, nil
}

type malformedConn struct{ c int }

func (mc malformedConn) Commit(round int, txs []radio.WireTx) ([]radio.ChannelOutcome, error) {
	return []radio.ChannelOutcome{{Channel: mc.c, Transmitters: 1, Msg: "bad"}}, nil
}

func (malformedConn) Close() error { return nil }

// droppingTransport erases every delivery on channel 0 and marks channel
// 1 faded, tagging both per the transport contract.
type droppingTransport struct{}

func (droppingTransport) Name() string { return "dropping" }

func (droppingTransport) Open(cfg radio.Config) (radio.Conn, error) {
	inner, err := radio.Loopback().Open(cfg)
	if err != nil {
		return nil, err
	}
	return &droppingConn{inner: inner}, nil
}

type droppingConn struct{ inner radio.Conn }

func (dc *droppingConn) Commit(round int, txs []radio.WireTx) ([]radio.ChannelOutcome, error) {
	outs, err := dc.inner.Commit(round, txs)
	if err != nil {
		return nil, err
	}
	for i := range outs {
		switch outs[i].Channel {
		case 0:
			if outs[i].Msg != nil {
				// Erase the sole transmission: no survivors.
				outs[i].Msg = nil
				outs[i].Transmitters = 0
				outs[i].Dropped = true
			}
		case 1:
			outs[i].Faded = true
		}
	}
	return outs, err
}

func (dc *droppingConn) Close() error { return dc.inner.Close() }

// TestTransportDegradationSurfaces pins that transport-layer drops and
// fades land in the same observation fields the fault layer populates —
// Dropped/Faded masks, per-round FaultDrops, and Result.TransportDrops.
func TestTransportDegradationSurfaces(t *testing.T) {
	const n, c, rounds = 6, 3, 30
	var sawDrop, sawFade bool
	var obsDrops int
	cfg := radio.Config{
		N: n, C: c, Seed: 5, Transport: droppingTransport{},
		Trace: func(o radio.RoundObservation) {
			if o.Dropped.Get(0) {
				sawDrop = true
				if o.Delivered[0] != nil {
					t.Errorf("round %d: dropped channel still delivered %v", o.Round, o.Delivered[0])
				}
			}
			if o.Faded.Get(1) {
				sawFade = true
			}
			obsDrops += o.FaultDrops
		},
	}
	procs := make([]radio.Process, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = func(e radio.Env) {
			rng := rand.New(rand.NewSource(int64(i) + 77))
			for r := 0; r < rounds; r++ {
				// Node i transmits alone on channel i%C every (i%C)th
				// round, guaranteeing uncontested deliveries on 0 and 1.
				if r%c == i%c && i < c {
					e.Transmit(i%c, r)
				} else {
					e.Listen(rng.Intn(c))
				}
			}
		}
	}
	res, err := radio.Run(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !sawDrop {
		t.Error("transport drop never surfaced in the Dropped mask")
	}
	if !sawFade {
		t.Error("transport fade never surfaced in the Faded mask")
	}
	if res.TransportDrops == 0 {
		t.Error("Result.TransportDrops = 0, want > 0")
	}
	if obsDrops != res.TransportDrops {
		t.Errorf("per-round FaultDrops sum = %d, Result.TransportDrops = %d; transport drops must feed both", obsDrops, res.TransportDrops)
	}
}
