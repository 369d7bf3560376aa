package netsim

import (
	"container/heap"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// shard owns a partition of the network's hosts and every piece of
// routing state a delivery into those hosts needs: the hosts themselves,
// link parameters, the partition view, reorder slots, a seeded random
// stream and a timer queue for time-scaled deliveries. Two sends whose
// destination hosts live on different shards share no locks at all; the
// only state they both touch is the atomic stats counters.
type shard struct {
	mu      sync.Mutex
	version uint64 // bumped on any change that invalidates cached routes
	rng     *rand.Rand
	hosts   map[string]*Host
	links   map[linkKey]LinkParams
	groups  map[string]int        // partition group per host; empty = fully connected
	down    map[string]bool       // crashed hosts (copy installed on every shard)
	pending map[linkKey]*Datagram // reorder slots for links delivering into this shard

	timerQ  timerHeap
	timerOn bool          // drain goroutine started
	wake    chan struct{} // nudges the drain goroutine after a push

	buf []byte // chunk allocator for small payload copies

	ctr shardCounters
}

// payload chunking: small datagram payloads are carved out of a shared
// chunk instead of one heap allocation each, cutting allocator and GC
// pressure on the send path by orders of magnitude. A chunk is released
// to the GC once every payload carved from it is unreachable. The limit
// covers the largest datagram the transport coalesces small frames into
// (1200 bytes of frames plus a batch header), so a full batch is carved
// like the frames it replaced.
const (
	payloadChunkSize = 16 << 10
	maxChunkedCopy   = 1280
)

// clonePayload copies p into freshly owned memory. Caller must hold s.mu.
func (s *shard) clonePayload(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	if len(p) > maxChunkedCopy {
		out := make([]byte, len(p))
		copy(out, p)
		return out
	}
	if len(s.buf) < len(p) {
		s.buf = make([]byte, payloadChunkSize)
	}
	out := s.buf[:len(p):len(p)]
	s.buf = s.buf[len(p):]
	copy(out, p)
	return out
}

// shardCounters keeps statistics shard-local so concurrent senders on
// different shards never touch a shared cache line. The route-stage
// counters are plain fields incremented under the shard lock; delivered
// and lostQueue are atomic because final delivery runs lock-free (from
// the sender after it released the shard lock, or from the timer
// goroutine).
type shardCounters struct {
	sent       uint64 // guarded by shard.mu
	lostLink   uint64 // guarded by shard.mu
	lostCut    uint64 // guarded by shard.mu
	lostCrash  uint64 // guarded by shard.mu
	duplicated uint64 // guarded by shard.mu
	reordered  uint64 // guarded by shard.mu
	wireBytes  uint64 // guarded by shard.mu

	delivered atomic.Uint64
	lostQueue atomic.Uint64
}

// newShard builds shard i with its random stream derived from the base
// seed as seed ^ hash(i), so every shard draws an independent but
// seed-reproducible sequence.
func newShard(seed int64, i int) *shard {
	return &shard{
		rng:     rand.New(rand.NewSource(shardSeed(seed, i))),
		hosts:   make(map[string]*Host),
		links:   make(map[linkKey]LinkParams),
		groups:  make(map[string]int),
		down:    make(map[string]bool),
		pending: make(map[linkKey]*Datagram),
		wake:    make(chan struct{}, 1),
	}
}

// shardSeed derives shard i's seed: baseSeed ^ hash(i). Shard 0 keeps the
// base seed unchanged so WithShards(1) draws exactly the base stream.
func shardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	var buf [8]byte
	for b := 0; b < 8; b++ {
		buf[b] = byte(i >> (8 * b))
	}
	return seed ^ int64(hashString(string(buf[:])))
}

// timedDelivery is one datagram waiting in a shard's timer queue.
type timedDelivery struct {
	due time.Time
	dst *Endpoint
	dg  Datagram
}

// timerHeap is a binary min-heap of timed deliveries ordered by due time.
// It replaces the per-datagram time.AfterFunc of the single-lock design:
// one goroutine per shard drains the heap, so a burst of in-flight
// datagrams costs heap pushes, not runtime timers.
type timerHeap []timedDelivery

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(timedDelivery)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	td := old[n-1]
	old[n-1] = timedDelivery{}
	*h = old[:n-1]
	return td
}

// scheduleLocked queues a timed delivery and lazily starts the shard's
// drain goroutine. Caller must hold s.mu.
func (s *shard) scheduleLocked(n *Network, due time.Time, dst *Endpoint, dg Datagram) {
	heap.Push(&s.timerQ, timedDelivery{due: due, dst: dst, dg: dg})
	if !s.timerOn {
		s.timerOn = true
		go s.drainTimers(n)
	}
}

// wakeTimer nudges the drain goroutine without blocking; a pending nudge
// is enough, so extra ones are dropped.
func (s *shard) wakeTimer() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// drainTimers delivers timed datagrams as they come due. It sleeps until
// the earliest deadline (or until a push wakes it with an earlier one) and
// exits when the network closes; deliveries still queued at close are
// dropped, matching the cancelled-timer semantics of the old design.
func (s *shard) drainTimers(n *Network) {
	for {
		s.mu.Lock()
		now := time.Now() //wwlint:allow determinism drains real-time-paced deliveries only; seeded replays (timeScale=0) never queue them
		var due []timedDelivery
		wait := time.Duration(-1)
		for len(s.timerQ) > 0 {
			if d := s.timerQ[0].due.Sub(now); d > 0 {
				wait = d
				break
			}
			td := heap.Pop(&s.timerQ).(timedDelivery)
			// An in-flight datagram is discarded at its delivery instant
			// if either endpoint's host crashed after it was scheduled,
			// matching the route-stage check and the Crash contract.
			if len(s.down) > 0 && (s.down[td.dst.host.name] || s.down[td.dg.From.Host]) {
				s.ctr.lostCrash++
				continue
			}
			due = append(due, td)
		}
		s.mu.Unlock()
		for _, td := range due {
			n.deliver(td.dst, td.dg)
		}
		if wait < 0 {
			select {
			case <-s.wake:
			case <-n.done:
				return
			}
			continue
		}
		t := time.NewTimer(wait)
		select {
		case <-s.wake:
			t.Stop()
		case <-t.C:
		case <-n.done:
			t.Stop()
			return
		}
	}
}
