package scenario

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/latency"
	"repro/internal/netsim"
	"repro/internal/relay"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// BroadcastOptions configures the large-group broadcast scenario (E14):
// one origin dapplet broadcasting to a session of Participants members,
// either over the relay spanning tree (Tree true) or over a flat
// per-destination fan-out (Tree false). The two modes are the A/B the
// experiment compares: identical session machinery, identical payloads,
// only the multicast mechanism differs.
type BroadcastOptions struct {
	// Participants is the group size including the origin (default 16,
	// minimum 2). A tree has fanout relay.DefaultFanout.
	Participants int
	// Messages is how many broadcasts the origin sends (default 10).
	Messages int
	// PayloadBytes pads each broadcast body to this size (default 64).
	PayloadBytes int
	// Tree selects relay-tree multicast; false wires a flat link from the
	// origin's outbox to every other member's inbox.
	Tree bool
	// Seed seeds the network (default 14).
	Seed int64
	// Shards is the network's delivery shard count (0 = GOMAXPROCS; 1
	// makes the run bit-reproducible per seed).
	Shards int
	// Deadline bounds the whole run (default 2 minutes).
	Deadline time.Duration
}

// broadcastHosts is how many simulated hosts a broadcast group's
// members are spread over, at most.
const broadcastHosts = 32

// MaxFlatParticipants caps the flat (Tree false) baseline: a flat session
// ships every participant the whole roster, by contract, so its set-up
// costs O(N²) wire bytes and a 10 000-member group takes ~20 minutes to
// re-prove a growth rate the 100 and 1 000 cells already show.
const MaxFlatParticipants = 1000

func (o *BroadcastOptions) defaults() error {
	if o.Participants == 0 {
		o.Participants = 16
	}
	if o.Participants < 2 {
		return fmt.Errorf("scenario: broadcast needs at least 2 participants, got %d", o.Participants)
	}
	if !o.Tree && o.Participants > MaxFlatParticipants {
		return fmt.Errorf("scenario: flat broadcast is capped at %d participants, got %d: every flat invite carries the whole roster, O(N²) wire bytes in all; use Tree for larger groups",
			MaxFlatParticipants, o.Participants)
	}
	if o.Messages <= 0 {
		o.Messages = 10
	}
	if o.PayloadBytes <= 0 {
		o.PayloadBytes = 64
	}
	if o.Seed == 0 {
		o.Seed = 14
	}
	if o.Deadline <= 0 {
		o.Deadline = 2 * time.Minute
	}
	return nil
}

// BroadcastResult reports what one broadcast run measured.
type BroadcastResult struct {
	// Fanout and Depth are the spanning tree's resolved fanout and its
	// root-to-leaf hop count (both 0 in flat mode: every listener is one
	// hop from the origin).
	Fanout int
	Depth  int
	// Setup is the session initiation time (one invite round across
	// the whole group).
	Setup time.Duration
	// SenderNsPerMsg is the origin's cost per broadcast: wall time spent
	// inside Outbox.Send divided by Messages. Flat fan-out pays O(N)
	// here; the tree pays O(k).
	SenderNsPerMsg float64
	// P50 and P99 are delivery-latency percentiles across every
	// (listener, message) pair, measured from just before the origin's
	// Send to the listener's receive.
	P50 time.Duration
	P99 time.Duration
	// RootBytesOut is the payload bytes the origin's transport physically
	// wrote during the broadcast phase (data, acks and retransmits).
	RootBytesOut uint64
	// MaxQueueDepth is the largest per-member transport send queue
	// (unacked + staged frames) sampled during the run.
	MaxQueueDepth int
	// Delivered is the total deliveries across listeners (always
	// (Participants-1)×Messages on success — the run fails otherwise).
	Delivered int
	// Digest folds every listener's name and delivery order
	// into one FNV-1a value. It is folded only after every listener has
	// been checked to deliver exactly 1..Messages in order, so it proves
	// completion and order: any successful run with the same roster has
	// the same digest, whatever its schedule. It is not a replay check.
	Digest uint64
}

// bcastListener collects one member's deliveries.
type bcastListener struct {
	name string
	seqs []int           // delivery order
	lats []time.Duration // latency per delivery
	err  error
}

// RunBroadcast builds a session of opts.Participants members, broadcasts
// opts.Messages payloads from the first member, and verifies every other
// member delivers all of them in order exactly once. In tree mode the
// origin's outbox hands each marshal-once body to its k tree children and
// interior members re-forward the shared bytes; in flat mode the origin's
// outbox holds a binding per listener.
func RunBroadcast(ctx context.Context, opts BroadcastOptions) (*BroadcastResult, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, opts.Deadline)
	defer cancel()

	w := world.New(transport.Config{}, netsim.WithSeed(opts.Seed), netsim.WithShards(opts.Shards))
	defer w.Close()

	names := make([]string, opts.Participants)
	dapplets := make([]*core.Dapplet, opts.Participants)
	for i := range names {
		names[i] = fmt.Sprintf("b%05d", i)
		d := w.Dapplet(fmt.Sprintf("bh%02d", i%broadcastHosts), "bcaster", names[i])
		dapplets[i] = d
		session.Attach(d, session.Policy{})
		if err := w.Dir.Register(ctx, directory.Entry{Name: names[i], Type: "bcaster", Addr: d.Addr()}); err != nil {
			return nil, err
		}
	}
	ini := session.NewInitiator(w.Dapplet("bh-ini", "initiator", "bcast-ini"), w.Dir)

	const outboxName, inboxName = "bcast", "news"
	spec := session.Spec{ID: "e14-bcast", Task: "large-group broadcast"}
	for _, n := range names {
		spec.Participants = append(spec.Participants, session.Participant{Name: n, Role: "member"})
	}
	if opts.Tree {
		spec.Tree = &session.TreeSpec{Outbox: outboxName, Inbox: inboxName}
	} else {
		for _, n := range names[1:] {
			spec.Links = append(spec.Links, session.Link{
				From: names[0], Outbox: outboxName, To: n, Inbox: inboxName,
			})
		}
	}

	setupStart := time.Now() //wwlint:allow determinism wall-clock setup measurement; the digest folds delivery order only
	h, err := ini.Initiate(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: broadcast session setup: %w", err)
	}
	res := &BroadcastResult{Setup: time.Since(setupStart)}
	if opts.Tree {
		tspec, _ := h.Tree()
		members := make([]relay.Member, len(names))
		for i, n := range names {
			members[i] = relay.Member{Name: n}
		}
		tr := relay.NewTree(members, tspec.Fanout)
		res.Fanout = tr.Fanout()
		res.Depth = tr.Depth()
	}

	// Listener per non-origin member: record delivery order and latency.
	// sendAt[seq] is stamped before the origin's Send, so a latency reads
	// "how long after the origin decided to broadcast did this listener
	// deliver" — queueing at a flat sender counts against it, as it
	// should.
	sendAt := make([]time.Time, opts.Messages+1)
	var sendAtMu sync.Mutex
	listeners := make([]*bcastListener, 0, opts.Participants-1)
	var wg sync.WaitGroup
	for i := 1; i < opts.Participants; i++ {
		l := &bcastListener{name: names[i]}
		listeners = append(listeners, l)
		in := dapplets[i].Inbox(inboxName)
		wg.Add(1)
		go func(l *bcastListener, in *core.Inbox) {
			defer wg.Done()
			for len(l.seqs) < opts.Messages {
				env, err := in.ReceiveEnvelopeContext(ctx)
				if err != nil {
					l.err = err
					return
				}
				now := time.Now() //wwlint:allow determinism wall-clock latency sample; the digest folds delivery order only
				body, ok := env.Body.(*wire.Text)
				if !ok {
					l.err = fmt.Errorf("unexpected body %T", env.Body)
					return
				}
				seq, err := strconv.Atoi(strings.TrimLeft(body.S[:6], "0 "))
				if err != nil {
					l.err = fmt.Errorf("unparseable broadcast body %q: %v", body.S[:6], err)
					return
				}
				sendAtMu.Lock()
				at := sendAt[seq]
				sendAtMu.Unlock()
				l.seqs = append(l.seqs, seq)
				l.lats = append(l.lats, now.Sub(at))
			}
		}(l, in)
	}

	// Sample every member's transport send queue while the broadcast
	// runs; the per-mode maximum is the backpressure story (a flat sender
	// stacks N×M frames, a relay at fanout k stays O(k)).
	sampleDone := make(chan struct{})
	var sampleWG sync.WaitGroup
	var queueMu sync.Mutex
	maxQueue := 0
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleDone:
				return
			case <-tick.C:
				peak := 0
				for _, d := range dapplets {
					if q := d.Transport().QueueDepth(); q > peak {
						peak = q
					}
				}
				queueMu.Lock()
				if peak > maxQueue {
					maxQueue = peak
				}
				queueMu.Unlock()
			}
		}
	}()

	origin := dapplets[0]
	out := origin.Outbox(outboxName)
	pad := strings.Repeat("x", opts.PayloadBytes)
	bytesBefore := origin.Transport().Stats().BytesOut

	var sendNs int64
	for seq := 1; seq <= opts.Messages; seq++ {
		body := &wire.Text{S: fmt.Sprintf("%06d|%s", seq, pad)[:6+1+opts.PayloadBytes]}
		sendAtMu.Lock()
		sendAt[seq] = time.Now() //wwlint:allow determinism wall-clock send stamp for latency samples; the digest folds delivery order only
		sendAtMu.Unlock()
		start := time.Now() //wwlint:allow determinism wall-clock send-cost sample; the digest folds delivery order only
		if err := out.Send(body); err != nil {
			return nil, fmt.Errorf("scenario: broadcast %d: %w", seq, err)
		}
		sendNs += time.Since(start).Nanoseconds()
	}
	res.SenderNsPerMsg = float64(sendNs) / float64(opts.Messages)

	// Wait for every listener to drain.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
	}
	close(sampleDone)
	sampleWG.Wait()
	res.RootBytesOut = origin.Transport().Stats().BytesOut - bytesBefore
	queueMu.Lock()
	res.MaxQueueDepth = maxQueue
	queueMu.Unlock()

	// Every listener must have delivered exactly 1..Messages in order —
	// no loss, no duplicate past the dedup layer.
	var lats []time.Duration
	digest := fnv.New64a()
	for _, l := range listeners {
		if l.err != nil {
			return nil, fmt.Errorf("scenario: listener %s after %d of %d deliveries: %w",
				l.name, len(l.seqs), opts.Messages, l.err)
		}
		for j, seq := range l.seqs {
			if seq != j+1 {
				return nil, fmt.Errorf("scenario: listener %s delivery %d is seq %d (want %d)",
					l.name, j, seq, j+1)
			}
		}
		digest.Write([]byte(l.name))
		for _, seq := range l.seqs {
			var b [4]byte
			b[0], b[1], b[2], b[3] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
			digest.Write(b[:])
		}
		res.Delivered += len(l.seqs)
		lats = append(lats, l.lats...)
	}
	res.Digest = digest.Sum64()

	sum := latency.Summarize(lats)
	res.P50, res.P99 = sum.P50, sum.P99
	if err := h.Terminate(ctx); err != nil {
		return nil, fmt.Errorf("scenario: broadcast teardown: %w", err)
	}
	return res, nil
}
