package transport

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"
	"time"
)

// TestChannelIsPure keeps the protocol a state machine that a test can
// drive on a virtual clock: channel.go imports neither sync nor netsim,
// calls no function of package time (it may use its types and
// constants), and starts no goroutine.
func TestChannelIsPure(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "channel.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	timeName := ""
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "sync", "repro/internal/netsim":
			t.Errorf("channel.go imports %s", path)
		case "time":
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	calls := 0
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("%s: a go statement", fset.Position(n.Pos()))
		case *ast.CallExpr:
			calls++
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && timeName != "" && id.Name == timeName {
					t.Errorf("%s: calls time.%s", fset.Position(n.Pos()), sel.Sel.Name)
				}
			}
		}
		return true
	})
	if calls < 50 {
		t.Fatalf("found only %d calls: the test is not reading the machine", calls)
	}
}

// The floor transition on a receiving machine: each case hands a fresh
// channel a few datagrams, one carrying a floor, and reads what it
// delivers, what it counts and the ack it answers the floor with.
func TestChannelFloor(t *testing.T) {
	frame := func(seq uint64, hdr string, inline bool) []byte {
		return appendFrame(appendHeader(nil, false, 0, 0, false), seq, []byte(hdr), inline, []byte{byte(seq)})
	}
	floor := func(f uint64, hdr string, frames ...[]byte) []byte {
		b := appendFloor(appendHeader(nil, false, 0, 0, false), f, []byte(hdr))
		for _, fr := range frames {
			_, off, _ := parseHeader(fr)
			b = append(b, fr[off:]...)
		}
		return b
	}
	for _, tc := range []struct {
		name      string
		dgrams    [][]byte
		delivered []string // seq:header of each delivery, in order
		skipped   uint64
		dups      uint64
		ackCum    uint64 // the first answer to the floor acks this
	}{{
		name:    "skips to the floor",
		dgrams:  [][]byte{floor(3, "")},
		skipped: 2, ackCum: 2,
	}, {
		name:      "delivers the buffered run from the floor, drops what is below it",
		dgrams:    [][]byte{frame(2, "h", true), frame(4, "h4", true), frame(5, "", false), floor(4, "h")},
		delivered: []string{"4:h4", "5:h4"},
		skipped:   3, ackCum: 5,
	}, {
		name:      "an elided frame after the skip takes the floor's header",
		dgrams:    [][]byte{frame(1, "a", true), frame(3, "", false), floor(3, "b")},
		delivered: []string{"1:a", "3:b"},
		skipped:   1, ackCum: 3,
	}, {
		name:      "frames behind the floor in one datagram",
		dgrams:    [][]byte{floor(2, "x", frame(1, "", false), frame(2, "", false))},
		delivered: []string{"2:x"},
		skipped:   1, dups: 1, ackCum: 2,
	}, {
		name:      "a floor at or below expected changes nothing but is acked",
		dgrams:    [][]byte{frame(1, "a", true), frame(2, "", false), floor(2, "z")},
		delivered: []string{"1:a", "2:a"},
		ackCum:    2,
	}, {
		name:      "a late copy of a skipped frame is a duplicate",
		dgrams:    [][]byte{floor(3, "a"), frame(2, "b", true), frame(3, "", false)},
		delivered: []string{"3:a"},
		skipped:   2, dups: 1, ackCum: 2,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var st statCounters
			c := newChannel(modelCfg.withDefaults(), &st)
			var got []string
			var answer []*[]byte
			for _, d := range tc.dgrams {
				deliv, out := c.receive(nil, time.Unix(1, 0), bytes.Clone(d))
				for _, f := range deliv {
					got = append(got, fmt.Sprintf("%d:%s", f.seq, f.hdr))
				}
				if h, _, _ := parseHeader(d); h.floor > 0 {
					answer = out
				}
			}
			if !slices.Equal(got, tc.delivered) {
				t.Errorf("delivered %q, want %q", got, tc.delivered)
			}
			if s := st.snapshot(); s.Skipped != tc.skipped || s.DupsDropped != tc.dups {
				t.Errorf("Skipped = %d, DupsDropped = %d; want %d and %d", s.Skipped, s.DupsDropped, tc.skipped, tc.dups)
			}
			if len(answer) == 0 {
				t.Fatal("the floor went unacknowledged")
			}
			if h, _, _ := parseHeader(*answer[0]); !h.hasCum || h.cum != tc.ackCum {
				t.Errorf("answered with ack %v, cum %d; want cum %d", h.hasCum, h.cum, tc.ackCum)
			}
		})
	}
}

// A datagram owes its sender one ack, however many of its frames ask for
// one: a fresh channel handed frames 2–13 in one datagram, seq 1 missing,
// answers with one bare ack whose bitmap holds all twelve.
func TestChannelOneAckPerDatagram(t *testing.T) {
	var st statCounters
	c := newChannel(modelCfg.withDefaults(), &st)
	d := appendHeader(nil, false, 0, 0, false)
	for seq := uint64(2); seq <= 13; seq++ {
		d = appendFrame(d, seq, []byte("h"), true, []byte{byte(seq)})
	}
	deliv, out := c.receive(nil, time.Unix(1, 0), d)
	if len(deliv) != 0 {
		t.Fatalf("delivered %d frames past the hole", len(deliv))
	}
	if len(out) != 1 {
		t.Fatalf("answered with %d datagrams, want 1", len(out))
	}
	if h, off, _ := parseHeader(*out[0]); !h.hasCum || h.cum != 0 || !h.hasSel || h.sel != 1<<12-1 || off != len(*out[0]) {
		t.Fatalf("answer: %+v, %d bytes of %d header; want a bare ack of cum 0 and bitmap %b", h, off, len(*out[0]), 1<<12-1)
	}
	if s := st.snapshot(); s.AcksSent != 1 {
		t.Fatalf("AcksSent = %d, want 1", s.AcksSent)
	}
}

// The floor on a sending machine: once a frame is given up on, every
// datagram carries the floor — the seq past the run given up on, with
// the run's last header — and a bare one goes out at each back-off of
// the timer while nothing else does, until the peer acks past the run.
// A frame below the run that is still held keeps the floor back.
func TestChannelFloorSent(t *testing.T) {
	var st statCounters
	cfg := Config{RTO: 10 * time.Millisecond, MaxRetries: 1}.withDefaults()
	c := newChannel(cfg, &st)
	now := time.Unix(1, 0)
	floorOf := func(out []*[]byte) (f uint64, hdr string) {
		for _, d := range out {
			if h, _, _ := parseHeader(*d); h.floor > 0 {
				return h.floor, string(h.floorHdr)
			}
		}
		return 0, ""
	}
	c.send(nil, now, []byte("one"), []byte{1}, false)
	c.send(nil, now, []byte("two"), []byte{2}, false)
	var out []*[]byte
	for range 2 { // the first expiry resends, the second gives up
		now = c.deadline()
		out = c.tick(nil, now)
	}
	if s := st.snapshot(); s.Failures != 2 {
		t.Fatalf("Failures = %d after two expiries, want 2", s.Failures)
	}
	if f, hdr := floorOf(out); f != 3 || hdr != "two" {
		t.Fatalf("the give-up's tick sent floor %d with header %q, want 3 with %q", f, hdr, "two")
	}
	for i := range 3 { // nothing else to send: a bare datagram carries it, backed off
		d := c.deadline()
		if d.Sub(now) < cfg.RTO/2 {
			t.Fatalf("probe %d due %v after the last, under the timer's floor", i, d.Sub(now))
		}
		now = d
		if out := c.tick(nil, now); len(out) != 1 {
			t.Fatalf("probe %d: %d datagrams", i, len(out))
		} else if f, _ := floorOf(out); f != 3 {
			t.Fatalf("probe %d carried floor %d, want 3", i, f)
		}
	}
	out, _ = c.send(nil, now, []byte("two"), []byte{3}, false)
	if f, _ := floorOf(out); f != 3 {
		t.Fatalf("the next frame's datagram carries floor %d, want 3", f)
	}
	c.receive(nil, now, appendHeader(nil, true, 3, 0, false))
	if len(c.given) != 0 {
		t.Fatalf("after the ack past the run: %d given up", len(c.given))
	}
	if out, _ := c.send(nil, now, nil, []byte{4}, false); len(out) != 1 {
		t.Fatalf("%d datagrams for a send", len(out))
	} else if f, _ := floorOf(out); f != 0 {
		t.Fatalf("floor %d sent after the peer acked past it", f)
	}

	// A held frame below the run keeps the floor back.
	c.receive(nil, now, appendHeader(nil, true, 4, 0, false))
	c.given = []frame{{seq: 7, hdr: []byte("h")}}
	c.unacked[6] = &outPkt{seq: 6}
	if _, _, ok := c.floor(); ok {
		t.Fatal("floor sent while seq 6, below the run, is still held")
	}
	delete(c.unacked, 6)
	if f, hdr, ok := c.floor(); !ok || f != 8 || string(hdr) != "h" {
		t.Fatalf("floor = %d, %q, %v; want 8, %q", f, hdr, ok, "h")
	}
}
