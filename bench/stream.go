package main

import (
	"context"
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Stream payload layout, from the end: 16-byte id trailer, 8-byte send
// stamp (ns since the instance's epoch; valid when flagStamped), one
// flag byte; seeded random padding before that.
const (
	flagStamped = 1 << 0 // the stamp field holds this message's send time
	flagFin     = 1 << 1 // last message of this drive
	streamTail  = trailerLen + 8 + 1
)

// creditWindow is the harness-side window: the sender stops this many
// messages ahead of the receiver, which keeps the unbounded inbox out
// of overload. It matches the transport's default send window.
const creditWindow = 64

// stream is one Outbox bound to one Inbox on another dapplet, a sender
// goroutine and a receiver goroutine.
type stream struct {
	w       *world
	out     *core.Outbox
	in      *core.Inbox
	payload []byte
	next    uint64 // next message id; ids are strictly +1 on the channel
	latOf   uint64 // latency is sampled on the ids the tracer would stamp, one in latOf
	epoch   time.Time
	udp     bool
}

func (s *stream) world() *world  { return s.w }
func (s *stream) nextID() uint64 { return s.next }

func seededPayload(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func newStream(w *world, a, b *core.Dapplet, wl *workload, seed int64) *stream {
	s := &stream{
		w: w, out: a.Outbox("out"), in: b.Inbox("in"),
		payload: seededPayload(seed, wl.payload), next: 1, latOf: wl.every, epoch: time.Now(),
	}
	s.out.Add(s.in.Ref())
	w.inboxes = append(w.inboxes, s.in)
	return s
}

func buildSimStream(lossy bool) func(context.Context, *workload, int64, *tracer) (instance, error) {
	return func(_ context.Context, wl *workload, seed int64, tr *tracer) (instance, error) {
		opts := []netsim.Option{netsim.WithSeed(seed)}
		if lossy {
			opts = append(opts, netsim.WithTimeScale(1))
		}
		w, a, b, err := newSimPair(tr, opts...)
		if err != nil {
			return nil, err
		}
		if lossy {
			w.net.SetLink("ha", "hb", netsim.LinkParams{
				Delay: netsim.Constant(2 * time.Millisecond), Loss: .02, Reorder: .02, Dup: .01,
			})
		}
		return newStream(w, a, b, wl, seed), nil
	}
}

func buildUDPStream(_ context.Context, wl *workload, seed int64, tr *tracer) (instance, error) {
	w := &world{tr: tr}
	a, err := w.addUDP("a")
	if err != nil {
		return nil, err
	}
	b, err := w.addUDP("b")
	if err != nil {
		w.close()
		return nil, err
	}
	s := newStream(w, a, b, wl, seed)
	s.udp = true
	return s, nil
}

func (s *stream) drive(_ context.Context, limit int, stop *atomic.Bool, t *tally) {
	credits := make(chan struct{}, creditWindow)
	type sent struct {
		n    uint64
		errs uint64
	}
	senderDone := make(chan sent, 1)
	first := s.next
	tr := s.w.tr

	go func() {
		var res sent
		msg := &wire.Bytes{B: s.payload}
		hdr := s.payload[len(s.payload)-streamTail:]
		for fin := false; !fin; {
			credits <- struct{}{}
			id := first + res.n
			fin = (limit > 0 && res.n+1 == uint64(limit)) || (limit == 0 && stop.Load())
			hdr[0] = 0
			if fin {
				hdr[0] |= flagFin
			}
			putTrailer(s.payload, id)
			if tr != nil {
				tr.start(id, 1)
			}
			if id%s.latOf == 0 {
				hdr[0] |= flagStamped
				binary.BigEndian.PutUint64(hdr[1:], uint64(time.Since(s.epoch)))
			}
			err := s.out.Send(msg)
			if tr != nil {
				tr.sendRet(id, 1)
			}
			res.n++
			if err != nil {
				res.errs++
				break
			}
		}
		senderDone <- res
	}()

	// Receiver: every delivery must carry the next id. The loop ends at
	// the message flagged fin, which FIFO delivery makes the last one;
	// if the channel breaks, the round's watchdog closes the inbox.
	var got uint64
	for {
		env, err := s.in.ReceiveEnvelope()
		if err != nil {
			break
		}
		b, ok := env.Body.(*wire.Bytes)
		id, tagged := uint64(0), false
		if ok {
			id, tagged = trailerID(b.B)
		}
		if !tagged || len(b.B) != len(s.payload) {
			t.fail(1, "delivery %d is not a stream message", got)
			continue
		}
		if tr != nil {
			tr.end(id, 1)
		}
		if id != first+got {
			t.fail(1, "delivery %d carries id %d, want %d", got, id, first+got)
		} else {
			t.ops++
		}
		got++
		hdr := b.B[len(b.B)-streamTail:]
		if hdr[0]&flagStamped != 0 {
			now := int64(time.Since(s.epoch))
			t.lat.add(now - int64(binary.BigEndian.Uint64(hdr[1:])))
		}
		<-credits
		if hdr[0]&flagFin != 0 {
			break
		}
	}
	// Wait for the sender, handing credits back meanwhile: if the world
	// was stopped under the loop, that lets it reach its own send error.
	var res sent
	for waiting := true; waiting; {
		select {
		case <-credits:
		case res = <-senderDone:
			waiting = false
		}
	}
	s.next = first + res.n
	t.attempted += res.n
	if res.errs > 0 {
		t.fail(res.errs, "Outbox.Send failed")
	}
	if got < res.n {
		t.fail(res.n-got, "%d of %d messages never arrived", res.n-got, res.n)
	}
}

func (s *stream) finish(context.Context, *tally, map[string]float64, *counters, *counters) {
}

func (s *stream) analyse(sg *segments) {
	tr := s.w.tr
	write, queue := "netsim.write_ns", "netsim.queue_ns"
	if s.udp {
		write, queue = "transport.udp_write_ns", "transport.udp_transit_ns"
	}
	for _, id := range tr.sampled(s.next) {
		h := tr.hop(id, 1)
		sg.messages++
		if sg.tile(id, 1, "message", pairPath(h, write, queue)) && h.sendRet.Load() != 0 {
			sg.add("core.outbox_send_ns", h.sendRet.Load()-h.start.Load())
		}
	}
}
