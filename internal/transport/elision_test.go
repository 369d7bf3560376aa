package transport

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// TestHeaderElision sends runs of headers from a to b between two
// channel machines. Every frame on the wire, retransmissions included, carries its
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
		check func(t *testing.T, d *duo)
	}{{
		name: "repeated header",
		hdrs: []string{ha, ha},
		check: func(t *testing.T, d *duo) {
			first := d.await(t, 0, func(d dgramInfo) bool { return d.carries(1) })
			second := d.await(t, 0, func(d dgramInfo) bool { return d.carries(2) })
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
		check: func(t *testing.T, d *duo) {
			b := d.await(t, 0, func(d dgramInfo) bool { return d.fromA && len(d.frames) > 1 })
			if !slices.Contains(b.inline, true) || !slices.Contains(b.inline, false) {
				t.Fatalf("batch of seqs %v has inline flags %v, want a mix", b.frames, b.inline)
			}
		},
	}, {
		name: "elided frame overtakes its inline predecessor",
		rule: firstCopy(2, swap),
		hdrs: []string{ha, hb, hb},
		check: func(t *testing.T, d *duo) {
			d.await(t, 0, func(d dgramInfo) bool { return !d.fromA && d.hasSel })
		},
	}, {
		name: "inline predecessor of an elided frame lost",
		cfg:  Config{RTO: 20 * time.Millisecond},
		rule: firstCopy(2, drop),
		hdrs: []string{ha, hb, hb},
		check: func(t *testing.T, d *duo) {
			d.await(t, 0, func(d dgramInfo) bool { return d.data(2, 2) })
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.RTO == 0 {
				cfg = coalesceCfg
			}
			d := newDuo(cfg, tc.rule)
			for i, h := range tc.hdrs {
				if err := d.send(0, []byte(h), binary.BigEndian.AppendUint64(nil, uint64(i+1)), false); err != nil {
					t.Fatal(err)
				}
			}
			d.settle(t, max(tc.delay, time.Millisecond), uint64(len(tc.hdrs)))
			for i, f := range d.rx[1] {
				if string(f.hdr) != tc.hdrs[i] {
					t.Fatalf("delivery %d has header %q, want %q", i+1, f.hdr, tc.hdrs[i])
				}
			}
			if tc.check != nil {
				tc.check(t, d)
			}
			for _, d := range d.log {
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
