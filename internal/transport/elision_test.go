package transport

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// TestHeaderElision sends runs of headers from a to b over the scripted
// pipe. Every frame on the wire, retransmissions included, carries its
// header exactly when the header differs from the one sent before it, and
// every message is delivered with the header it was sent with, whatever
// the pipe does to the frame that carried that header.
func TestHeaderElision(t *testing.T) {
	const ha, hb, hc = "hdr-alpha", "hdr-b", "hdr-charlie-c"
	firstCopy := func(seq uint64, v verdict) func(dgramInfo) verdict {
		return func(d dgramInfo) verdict {
			if d.data(seq, 1) {
				return v
			}
			return pass
		}
	}
	for _, tc := range []struct {
		name  string
		delay time.Duration
		cfg   Config
		rule  func(dgramInfo) verdict
		hdrs  []string // the header of each seq, from 1
		check func(t *testing.T, p *pipe)
	}{{
		name: "repeated header",
		hdrs: []string{ha, ha},
		check: func(t *testing.T, p *pipe) {
			first := p.await(t, "seq 1", func(d dgramInfo) bool { return d.carries(1) })
			second := p.await(t, "seq 2", func(d dgramInfo) bool { return d.carries(2) })
			// Shorter by the header and its one-byte length.
			if want := first.size - 1 - len(ha); len(first.frames) != 1 || len(second.frames) != 1 || second.size != want {
				t.Fatalf("lone frames of %d and %d bytes, want the second %d", first.size, second.size, want)
			}
		},
	}, {
		name: "A B A",
		hdrs: []string{ha, hb, ha},
	}, {
		// No header is one too: left out while none is on record, and
		// carried, empty, after one.
		name: "empty headers",
		hdrs: []string{"", "", ha, ""},
	}, {
		// Frames 9..16 are staged behind the ack of 1..8 and leave as one
		// datagram when it arrives.
		name:  "coalesced batch of mixed headers",
		delay: 200 * time.Millisecond,
		hdrs:  []string{ha, ha, ha, ha, ha, ha, ha, ha, ha, hb, hb, ha, hc, hc, hc, ha},
		check: func(t *testing.T, p *pipe) {
			d := p.await(t, "a batch", func(d dgramInfo) bool { return d.fromA && len(d.frames) > 1 })
			if !slices.Contains(d.inline, true) || !slices.Contains(d.inline, false) {
				t.Fatalf("batch of seqs %v has inline flags %v, want a mix", d.frames, d.inline)
			}
		},
	}, {
		name: "elided frame overtakes its inline predecessor",
		rule: firstCopy(2, swap),
		hdrs: []string{ha, hb, hb},
		check: func(t *testing.T, p *pipe) {
			p.await(t, "b's ack of the gap", func(d dgramInfo) bool { return !d.fromA && d.hasSel })
		},
	}, {
		name: "inline predecessor of an elided frame lost",
		cfg:  Config{RTO: 20 * time.Millisecond},
		rule: firstCopy(2, drop),
		hdrs: []string{ha, hb, hb},
		check: func(t *testing.T, p *pipe) {
			p.await(t, "seq 2 again", func(d dgramInfo) bool { return d.data(2, 2) })
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.RTO == 0 {
				cfg = coalesceCfg
			}
			p, ra, rb := pipePair(t, max(tc.delay, time.Millisecond), cfg, tc.rule)
			for i, h := range tc.hdrs {
				if err := ra.Send(rb.LocalAddr(), []byte(h), binary.BigEndian.AppendUint64(nil, uint64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			for i, h := range tc.hdrs {
				m, err := recvDelivery(rb, 10*time.Second)
				if err != nil {
					t.Fatalf("seq %d: %v", i+1, err)
				}
				if seq := binary.BigEndian.Uint64(m.payload); seq != uint64(i+1) || string(m.hdr) != h {
					t.Fatalf("delivery %d is seq %d with header %q, want seq %d with %q", i+1, seq, m.hdr, i+1, h)
				}
			}
			if tc.check != nil {
				tc.check(t, p)
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			for _, d := range p.log {
				for i, seq := range d.frames {
					if !d.fromA {
						continue
					}
					prev := ""
					if seq > 1 {
						prev = tc.hdrs[seq-2]
					}
					if want := tc.hdrs[seq-1] != prev; d.inline[i] != want {
						t.Fatalf("copy %d of seq %d: header inline = %v, want %v", d.copies[i], seq, d.inline[i], want)
					}
				}
			}
		})
	}
}
