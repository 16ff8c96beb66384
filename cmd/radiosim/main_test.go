package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestRunProtocols smoke-tests run() across every -proto value.
func TestRunProtocols(t *testing.T) {
	cases := []struct {
		proto string
		extra []string
		want  string // substring expected in the output
	}{
		{"fame", nil, "pairs="},
		{"fame-compact", []string{"-pairs", "4"}, "pairs="},
		{"fame-direct", []string{"-pairs", "4"}, "pairs="},
		{"groupkey", nil, "agreed="},
		{"gossip", []string{"-n", "8", "-rounds", "4000"}, "completedAt="},
		{"gossip-det", []string{"-n", "8", "-rounds", "4000"}, "completedAt="},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.proto, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"-proto", tc.proto, "-seed", "1"}, tc.extra...)
			var out bytes.Buffer
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output %q does not contain %q", out.String(), tc.want)
			}
		})
	}
}

// TestRunAdversaries smoke-tests run() across every -adv value.
func TestRunAdversaries(t *testing.T) {
	for _, adv := range []string{"none", "jam", "sweep", "worst", "replay", "burst", "hop"} {
		adv := adv
		t.Run(adv, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			args := []string{"-proto", "fame", "-adv", adv, "-pairs", "4", "-seed", "2"}
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
			if !strings.Contains(out.String(), "cover=") {
				t.Fatalf("output %q missing outcome line", out.String())
			}
		})
	}
}

// TestRunRegimes covers the -regime selector, including the rejection path.
func TestRunRegimes(t *testing.T) {
	for _, tc := range []struct {
		regime string
		n, c   int
		tt     int
		ok     bool
	}{
		{"auto", 20, 2, 1, true},
		{"base", 20, 2, 1, true},
		{"2t", 64, 4, 2, true},
		{"2t2", 64, 8, 2, true},
		{"bogus", 20, 2, 1, false},
	} {
		tc := tc
		t.Run(tc.regime, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			args := []string{
				"-proto", "fame", "-regime", tc.regime, "-pairs", "4",
				"-n", fmt.Sprint(tc.n), "-c", fmt.Sprint(tc.c), "-t", fmt.Sprint(tc.tt),
			}
			err := run(context.Background(), args, &out)
			if tc.ok && err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("run(%v) accepted bogus regime", args)
				}
				for _, valid := range []string{"auto", "base", "2t", "2t2"} {
					if !strings.Contains(err.Error(), valid) {
						t.Fatalf("error %q does not name the valid regime %q", err, valid)
					}
				}
			}
		})
	}
}

func TestHelpExitsClean(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &out); err != nil {
		t.Fatalf("-h returned %v, want nil", err)
	}
}

func TestRunRejectsUnknownFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-proto", "bogus"}, &out); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := run(context.Background(), []string{"-adv", "bogus"}, &out); err == nil {
		t.Fatal("unknown adversary accepted")
	}
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunTransportFlags covers the -transport selector: the udp backend
// must run every Runner protocol, and malformed tuning must be rejected
// before any simulation starts.
func TestRunTransportFlags(t *testing.T) {
	t.Run("udp runs", func(t *testing.T) {
		for _, proto := range []string{"fame", "fame-compact", "groupkey"} {
			proto := proto
			t.Run(proto, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				args := []string{"-proto", proto, "-pairs", "4", "-seed", "1", "-transport", "udp"}
				if err := run(context.Background(), args, &out); err != nil {
					t.Fatalf("run(%v): %v", args, err)
				}
			})
		}
	})
	t.Run("rejections", func(t *testing.T) {
		for _, args := range [][]string{
			{"-transport", "bogus"},
			{"-transport", "udp", "-transport-loss", "1.5"},
			{"-transport", "udp", "-transport-loss", "-0.1"},
			{"-transport", "udp", "-transport-window", "-1s"},
			{"-transport-loss", "0.1"},                // tuning requires -transport udp
			{"-transport-window", "1s"},               // tuning requires -transport udp
			{"-proto", "gossip", "-transport", "udp"}, // gossip bypasses the Runner
		} {
			var out bytes.Buffer
			if err := run(context.Background(), args, &out); err == nil {
				t.Fatalf("run(%v) succeeded, want error", args)
			}
		}
	})
}

// TestRunAbortsOnCancelledContext pins the signal path: main installs a
// NotifyContext, so a cancelled context must abort every protocol at its
// next round boundary with an error carrying the context's cancellation
// instead of running to completion.
func TestRunAbortsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-proto", "fame", "-seed", "1"},
		{"-proto", "groupkey", "-seed", "1"},
		{"-proto", "gossip", "-n", "8", "-rounds", "4000", "-seed", "1"},
	} {
		args := args
		t.Run(args[1], func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			err := run(ctx, args, &out)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run(%v) with cancelled ctx = %v, want context.Canceled in chain", args, err)
			}
		})
	}
}
