package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securadio/internal/fleet"
)

// fixtureJournal runs the fabric tests' 2x2 fame-clear sweep through a
// journaling coordinator and returns the journal it wrote: a header and
// one record per cell, exactly as a real sweep leaves them on disk.
func fixtureJournal(tb testing.TB) []byte {
	tb.Helper()
	base, ok := fleet.Lookup("fame-clear")
	if !ok {
		tb.Fatal("fame-clear missing")
	}
	path := filepath.Join(tb.TempDir(), "sweep.ckpt")
	co := New(Config{Checkpoint: path})
	co.AttachLocal(2)
	sweep := fleet.Sweep{Base: base, N: []int{20, 24}, T: []int{0, 1}, Runs: 2, Seed: 7}
	if _, err := co.RunSweep(context.Background(), sweep); err != nil {
		tb.Fatal(err)
	}
	co.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// mustJSON is the canonical encoding both fuzz targets compare values by.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted value does not re-encode: %v", err)
	}
	return blob
}

// FuzzRecvLine hammers the wire-protocol reader: no input may panic it,
// and every message it accepts must re-encode (as send writes it) to a
// line that reads back as the same message.
func FuzzRecvLine(f *testing.F) {
	lines := strings.SplitAfter(string(fixtureJournal(f)), "\n")
	var rec cellRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		f.Fatal(err)
	}
	base, _ := fleet.Lookup("fame-clear")
	var wire bytes.Buffer
	sender := newLineCodec(nil, &wire)
	for _, m := range []message{
		{V: protocolVersion, Type: msgHello},
		{V: protocolVersion, Type: msgLease, ID: rec.Index, Campaign: &fleet.Campaign{Scenario: base, Runs: 2, Seed: 7}},
		{V: protocolVersion, Type: msgResult, ID: rec.Index, Aggregate: rec.Aggregate},
		{V: protocolVersion, Type: msgFail, ID: rec.Index, Error: "cell failed"},
	} {
		if err := sender.send(m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(wire.Bytes())
	f.Add([]byte("{not json}\n"))
	f.Add([]byte(`{"v":1,"type":"hello","id":0,"extra":1}` + "\n"))
	f.Add([]byte(`{"v":2,"type":"hello","id":0}` + "\n"))
	f.Add([]byte(`{"v":1,"type":"hello","id":0} {}` + "\n"))
	f.Add([]byte(`{"v":1,"type":"hello","id":0}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := newLineCodec(bytes.NewReader(data), io.Discard)
		for {
			m, err := c.recv()
			if err != nil {
				return
			}
			var line bytes.Buffer
			if err := newLineCodec(nil, &line).send(m); err != nil {
				t.Fatalf("accepted message does not re-encode: %v", err)
			}
			again, err := newLineCodec(&line, io.Discard).recv()
			if err != nil {
				t.Fatalf("re-encoded message rejected: %v\n%s", err, line.Bytes())
			}
			if got, want := mustJSON(t, again), mustJSON(t, m); !bytes.Equal(got, want) {
				t.Fatalf("message changed across a re-encode:\n%s\nvs\n%s", got, want)
			}
		}
	})
}

// FuzzLoadJournal hammers the checkpoint-journal loader: no journal may
// panic it, and every journal it accepts must re-encode (one JSON record
// a line, as journal.append writes them) to a file that loads back to the
// same header and records.
func FuzzLoadJournal(f *testing.F) {
	journal := string(fixtureJournal(f))
	lines := strings.SplitAfter(journal, "\n")
	f.Add([]byte(journal))
	f.Add([]byte(lines[0] + "{not json}\n" + lines[2]))
	f.Add([]byte(lines[0] + strings.Replace(lines[1], `"type":"cell"`, `"type":"cell","extra":1`, 1)))
	f.Add([]byte(lines[0] + strings.Replace(lines[1], `"type":"cell"`, `"type":"blob"`, 1)))
	f.Add([]byte(lines[0] + lines[1] + strings.Replace(lines[1], `"runs":2`, `"runs":1`, 1)))
	f.Add([]byte(lines[1]))
	f.Add([]byte(lines[0] + lines[1] + lines[2][:len(lines[2])/2]))
	f.Add([]byte{})

	// A fuzz process runs its inputs one at a time, so one pair of files
	// serves them all.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		hdr, recs, _, err := loadJournal(path)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		buf.Write(append(mustJSON(t, hdr), '\n'))
		for _, rec := range recs {
			buf.Write(append(mustJSON(t, rec), '\n'))
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := os.WriteFile(again, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		hdr2, recs2, warn, err := loadJournal(again)
		if err != nil {
			t.Fatalf("re-encoded journal rejected: %v\n%s", err, buf.Bytes())
		}
		if hdr2 != hdr || warn != "" || len(recs2) != len(recs) {
			t.Fatalf("journal changed across a re-encode: header %+v -> %+v, %d -> %d records, warning %q",
				hdr, hdr2, len(recs), len(recs2), warn)
		}
		for i := range recs {
			if got, want := mustJSON(t, recs2[i]), mustJSON(t, recs[i]); !bytes.Equal(got, want) {
				t.Fatalf("record %d changed across a re-encode:\n%s\nvs\n%s", i+1, got, want)
			}
		}
	})
}
