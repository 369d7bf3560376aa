package relay

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sinkConn is a socket nobody answers: it counts the datagrams written
// to each address and never delivers one.
type sinkConn struct {
	mu     sync.Mutex
	writes map[netsim.Addr]int
	once   sync.Once
	closed chan struct{}
}

func newSinkConn() *sinkConn {
	return &sinkConn{writes: make(map[netsim.Addr]int), closed: make(chan struct{})}
}

func (c *sinkConn) LocalAddr() netsim.Addr { return netsim.Addr{Host: "self", Port: 1} }
func (c *sinkConn) WriteTo(to netsim.Addr, _ []byte) error {
	c.mu.Lock()
	c.writes[to]++
	c.mu.Unlock()
	return nil
}
func (c *sinkConn) ReadFrom() ([]byte, netsim.Addr, error) {
	<-c.closed
	return nil, netsim.Addr{}, transport.ErrClosed
}
func (c *sinkConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// FuzzRelayFrames feeds a bound relay an arbitrary sequence of frames —
// four bytes each: origin, sequence number, TTL, inbound hop — the way
// its "@relay" consumer would. Whatever the order, duplication or
// gaps, the relay must not panic; must deliver each origin's frames to
// the inbox its binding names (frames name none) in
// sequence order exactly once, starting at 1 (a member there from the
// start) or at the first one it heard (a late joiner), and as far as the
// frames it was given run without a gap; must never deliver
// its own; and must forward every frame with hop budget left to each
// neighbour except the origin and the hop it came from — once per
// arrival, duplicates included, which is what lets a redrive cross
// members that already have the frames.
func FuzzRelayFrames(f *testing.F) {
	f.Add(true, []byte{0, 1, 3, 0, 0, 2, 3, 0, 0, 3, 3, 0})              // in order from the parent
	f.Add(true, []byte{0, 3, 3, 1, 0, 1, 3, 0, 0, 2, 3, 0, 0, 3, 3, 0})  // seq 3 overtakes 1 mid-repair
	f.Add(false, []byte{1, 5, 2, 1, 1, 7, 2, 1, 1, 6, 2, 2, 1, 5, 2, 3}) // a gap parked and filled, then a duplicate
	f.Add(false, []byte{3, 1, 3, 0, 0, 4, 0, 4, 2, 9, 1, 1, 2, 8, 1, 1}) // own frame looped back; TTL spent; a neighbour as origin
	f.Add(false, []byte{0, 0, 1, 0, 0, 255, 1, 0, 0, 1, 1, 2})           // sequence 0 as a baseline

	const sid, window = "fuzz", 64
	self := netsim.Addr{Host: "self", Port: 1}
	neighbors := []Member{
		{Name: "parent", Addr: netsim.Addr{Host: "up", Port: 1}},
		{Name: "kid1", Addr: netsim.Addr{Host: "down", Port: 1}},
		{Name: "kid2", Addr: netsim.Addr{Host: "down", Port: 2}},
	}
	// A frame's origin: two members elsewhere in the tree, a neighbour,
	// or this relay itself.
	origins := []string{"far1", "far2", "kid2", "me"}
	// The hop a frame arrives from: a neighbour, a stranger (a stale
	// view mid-repair), or nowhere.
	inbounds := []netsim.Addr{neighbors[0].Addr, neighbors[1].Addr, neighbors[2].Addr, {Host: "stranger", Port: 9}, {}}

	f.Fuzz(func(t *testing.T, fromStart bool, data []byte) {
		if len(data)/4 >= window {
			t.Skip() // nobody acknowledges: a full transport window would block the forward
		}
		conn := newSinkConn()
		d := core.NewDapplet("me", "fuzz", conn, core.WithTransportConfig(transport.Config{RTO: time.Hour, Window: window}))
		defer d.Stop()
		r := Attach(d)
		r.Bind(sid, Binding{Neighbors: neighbors, Depth: 2, Inbox: "news", Epoch: 1, FromStart: fromStart})
		in := d.Inbox("news")
		// Forwards are counted as sends, not datagrams: past ackEvery
		// unacknowledged frames to one neighbour, and nobody acknowledges
		// here, the transport stages the next one instead of writing it.
		forwards := make(map[netsim.Addr]int) // written by onFrame's sends, on this goroutine
		d.OnSend(func(env *wire.Envelope) { forwards[env.To.Dapplet]++ })

		type heard struct {
			first uint64
			seqs  map[uint64]bool
		}
		offered := make(map[string]*heard)
		wantForwards := make(map[netsim.Addr]int)
		for i := 0; i+4 <= len(data); i += 4 {
			origin, seq := origins[int(data[i])%len(origins)], uint64(data[i+1])
			ttl, inbound := uint32(data[i+2]%4), inbounds[int(data[i+3])%len(inbounds)]
			body, err := wire.EncodeBody(&wire.Text{S: fmt.Sprintf("%s/%d", origin, seq)})
			if err != nil {
				t.Fatal(err)
			}
			frame := &wire.RelayFrame{
				Origin: origin, OriginAddr: netsim.Addr{Host: origin, Port: 7}, OriginOutbox: "out",
				Lamport: uint64(i), Seq: seq, Epoch: 1, TTL: ttl,
				BodyID: body.ID(), Body: append([]byte(nil), body.Bytes()...),
			}
			body.Release()
			r.onFrame(&wire.Envelope{To: wire.InboxRef{Dapplet: self, Inbox: InboxName}, FromDapplet: inbound, Session: sid, Body: frame})

			if origin == "me" {
				continue
			}
			h := offered[origin]
			if h == nil {
				h = &heard{first: seq, seqs: make(map[uint64]bool)}
				if fromStart {
					h.first = 1
				}
				offered[origin] = h
			}
			h.seqs[seq] = true
			if ttl > 0 {
				for _, n := range neighbors {
					if n.Addr != inbound && n.Name != origin {
						wantForwards[n.Addr]++
					}
				}
			}
		}

		// Deliveries are queued synchronously by onFrame: read exactly
		// as many as the relay says it made.
		got := make(map[string][]uint64)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for n := r.Stats().Delivered; n > 0; n-- {
			env, err := in.ReceiveEnvelopeContext(ctx)
			if err != nil {
				t.Fatalf("relay counted a delivery the inbox does not hold: %v", err)
			}
			origin, num, _ := strings.Cut(env.Body.(*wire.Text).S, "/")
			seq, err := strconv.ParseUint(num, 10, 64)
			if err != nil {
				t.Fatalf("delivered body %q is not one that was sent", env.Body.(*wire.Text).S)
			}
			if want := (netsim.Addr{Host: origin, Port: 7}); env.FromDapplet != want || env.Session != sid || env.FromOutbox != "out" {
				t.Fatalf("delivery of %s/%d presents %v %q %q, want the origin's identity", origin, seq, env.FromDapplet, env.Session, env.FromOutbox)
			}
			got[origin] = append(got[origin], seq)
		}
		if len(got["me"]) > 0 {
			t.Fatalf("relay delivered its own frames: %v", got["me"])
		}
		for origin, h := range offered {
			run := 0
			for h.seqs[h.first+uint64(run)] {
				run++
			}
			if len(got[origin]) != run {
				t.Fatalf("origin %s: delivered %v, want the %d-frame run from seq %d", origin, got[origin], run, h.first)
			}
			for i, seq := range got[origin] {
				if seq != h.first+uint64(i) {
					t.Fatalf("origin %s: delivery %d is seq %d, want %d (delivered %v)", origin, i, seq, h.first+uint64(i), got[origin])
				}
			}
		}
		for origin := range got {
			if offered[origin] == nil {
				t.Fatalf("delivered frames of %s, which sent none: %v", origin, got[origin])
			}
		}

		for _, n := range neighbors {
			if forwards[n.Addr] != wantForwards[n.Addr] {
				t.Fatalf("forwarded %d frames to %s, want %d", forwards[n.Addr], n.Name, wantForwards[n.Addr])
			}
		}
		if len(forwards) > len(neighbors) {
			t.Fatalf("frames forwarded beyond the neighbours: %v", forwards)
		}
		conn.mu.Lock()
		defer conn.mu.Unlock()
		if len(conn.writes) > len(neighbors) {
			t.Fatalf("datagrams written beyond the neighbours: %v", conn.writes)
		}
	})
}
