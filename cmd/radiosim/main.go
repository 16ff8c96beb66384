// Command radiosim runs one protocol from the paper on a simulated
// multi-channel radio network and prints the outcome.
//
// Examples:
//
//	radiosim -proto fame -n 20 -c 2 -t 1 -pairs 8 -adv worst
//	radiosim -proto fame-compact -n 20 -c 2 -t 1 -pairs 6 -adv jam
//	radiosim -proto groupkey -n 40 -c 3 -t 2 -adv jam
//	radiosim -proto gossip -n 16 -c 3 -t 1 -rounds 8000
//	radiosim -proto fame -regime 2t -n 64 -c 4 -t 2 -pairs 12
//	radiosim -proto fame -n 20 -c 2 -t 1 -transport udp -transport-loss 0.05
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"securadio"
	"securadio/internal/fleet"
	"securadio/internal/gossip"
	"securadio/internal/graph"
)

// errParsed signals a flag error the FlagSet has already reported; main
// must not print it a second time.
var errParsed = errors.New("invalid arguments")

func main() {
	// SIGINT/SIGTERM cancel the context; the simulation aborts at the
	// next radio round boundary and the process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errParsed) {
			fmt.Fprintln(os.Stderr, "radiosim:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("radiosim", flag.ContinueOnError)
	var (
		proto   = fs.String("proto", "fame", "protocol: fame | fame-compact | fame-direct | groupkey | gossip | gossip-det")
		n       = fs.Int("n", 20, "number of nodes")
		c       = fs.Int("c", 2, "number of channels")
		t       = fs.Int("t", 1, "adversary budget (channels per round)")
		seed    = fs.Int64("seed", 1, "master seed")
		advName = fs.String("adv", "none", "adversary: "+strings.Join(securadio.AdversaryStrategies(), " | "))
		pairs   = fs.Int("pairs", 8, "number of random AME pairs (fame protocols)")
		rounds  = fs.Int("rounds", 8000, "schedule length (gossip protocols)")
		regime  = fs.String("regime", "auto", "f-AME regime: auto | base | 2t | 2t2")
		cleanup = fs.Int("cleanup", 0, "best-effort cleanup move budget (extension)")
		kappa   = fs.Float64("kappa", 0, "whp repetition multiplier (0 = default)")
		trans   = fs.String("transport", "mem", "radio transport backend: mem | udp (loopback sockets)")
		tLoss   = fs.Float64("transport-loss", 0, "udp: injected datagram-loss probability in [0, 1]")
		tWindow = fs.Duration("transport-window", 0, "udp: receive-window cutoff (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errParsed
	}

	rgm, err := securadio.ParseRegime(*regime)
	if err != nil {
		return err
	}

	opts := []securadio.RunnerOption{
		securadio.WithAdversary(*advName),
		securadio.WithRegime(rgm),
		securadio.WithKappa(*kappa),
		securadio.WithCleanup(*cleanup),
		securadio.WithDirect(*proto == "fame-direct"),
	}
	switch *trans {
	case "mem":
		if *tLoss != 0 || *tWindow != 0 {
			return errors.New("-transport-loss and -transport-window require -transport udp")
		}
	case "udp":
		tr, terr := securadio.NewUDPTransport(securadio.UDPConfig{Loss: *tLoss, Window: *tWindow})
		if terr != nil {
			return terr
		}
		opts = append(opts, securadio.WithTransport(tr))
	default:
		return fmt.Errorf("unknown transport %q (want mem or udp)", *trans)
	}

	net := securadio.Network{N: *n, C: *c, T: *t, Seed: *seed}
	runner, err := securadio.NewRunner(net, opts...)
	if err != nil {
		return err
	}

	switch *proto {
	case "fame", "fame-direct":
		return runFame(ctx, out, runner, net, *pairs, false)
	case "fame-compact":
		return runFame(ctx, out, runner, net, *pairs, true)
	case "groupkey":
		return runGroupKey(ctx, out, runner, net)
	case "gossip", "gossip-det":
		// The gossip baselines predate the paper's protocols and live
		// outside the Runner's layer set; they still honor ctx.
		if *trans != "mem" {
			return fmt.Errorf("-transport %s is not supported for gossip protocols", *trans)
		}
		adv, aerr := securadio.NewAdversary(*advName, net, *seed+1)
		if aerr != nil {
			return aerr
		}
		net.Adversary = adv
		return runGossip(ctx, out, net, *rounds, *proto == "gossip-det")
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
}

func runFame(ctx context.Context, out io.Writer, runner *securadio.Runner, net securadio.Network, k int, compact bool) error {
	rng := rand.New(rand.NewSource(net.Seed))
	pairs := graph.RandomPairs(fleet.PairSpan(net.N), k, rng.Intn)

	var rep *securadio.ExchangeReport
	var err error
	if compact {
		payloads := make(map[securadio.Pair]string, len(pairs))
		for _, p := range pairs {
			payloads[p] = fmt.Sprintf("m/%v", p)
		}
		rep, err = runner.ExchangeCompact(ctx, pairs, payloads)
	} else {
		payloads := make(map[securadio.Pair]securadio.Message, len(pairs))
		for _, p := range pairs {
			payloads[p] = fmt.Sprintf("m/%v", p)
		}
		rep, err = runner.Exchange(ctx, pairs, payloads)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pairs=%d delivered=%d failed=%d cover=%d rounds=%d gameMoves=%d\n",
		len(pairs), len(rep.Delivered), len(rep.Failed), rep.DisruptionCover,
		rep.Rounds, rep.GameRounds)
	for _, p := range rep.Failed {
		fmt.Fprintf(out, "  failed: %v\n", p)
	}
	return nil
}

func runGroupKey(ctx context.Context, out io.Writer, runner *securadio.Runner, net securadio.Network) error {
	rep, err := runner.GroupKey(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "leader=%d agreed=%d/%d rounds=%d\n", rep.Leader, rep.Agreed, net.N, rep.Rounds)
	return nil
}

func runGossip(ctx context.Context, out io.Writer, net securadio.Network, rounds int, deterministic bool) error {
	bodies := make([]securadio.Message, net.N)
	for i := range bodies {
		bodies[i] = fmt.Sprintf("rumor-%d", i)
	}
	p := gossip.Params{N: net.N, C: net.C, T: net.T, Rounds: rounds}
	var (
		res *gossip.Result
		err error
	)
	if deterministic {
		res, err = gossip.RunDeterministicContext(ctx, p, net.Adversary, net.Seed, bodies)
	} else {
		res, err = gossip.RunContext(ctx, p, net.Adversary, net.Seed, bodies)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "rounds=%d completedAt=%d deliveries=%d polluted=%d\n",
		res.Rounds, res.CompletedAt, res.Deliveries(), res.Polluted)
	return nil
}
