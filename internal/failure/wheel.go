package failure

import (
	"sync"
	"sync/atomic"
	"time"
)

// wheelSlots is the number of buckets in a Host's hashed timer wheel; a
// power of two so the slot index is a mask, not a division. Timers due
// further than one revolution out simply collide into their slot and are
// skipped (their absolute due tick has not arrived), so a quiet tick
// costs O(live timers / wheelSlots), not O(live timers).
const wheelSlots = 1024

// minGranularity floors a Host's tick period; ticking faster than this
// buys no verdict precision and burns a core.
const minGranularity = 100 * time.Microsecond

// wheelTimer is one schedulable callback on a Host's hashed timer wheel.
// The zero value is an unscheduled timer; fire must be set before the
// first schedule. fire runs on the Host's loop thread without any Host
// lock held; it returns the delay to the next firing, or a negative
// duration to stop. All other fields are guarded by the owning Host's
// mutex.
type wheelTimer struct {
	fire func(now time.Time) time.Duration

	next, prev *wheelTimer
	due        int64  // absolute tick the timer is due at
	gen        uint64 // bumped by every (re)schedule and cancel
	linked     bool
}

// HostStats counts a detector Host's timer-loop activity.
type HostStats struct {
	// Ticks is the number of wheel ticks advanced through.
	Ticks uint64
	// Fired is the number of timer callbacks run.
	Fired uint64
	// Timers is the number of currently scheduled timers.
	Timers int
	// Busy is the total thread time spent advancing the wheel and running
	// callbacks; Busy/(Ticks*granularity) is the loop's duty cycle.
	Busy time.Duration
}

// Host is a shared timer loop for failure detectors: one goroutine
// ticking a hashed timer wheel that any number of detectors on the same
// runtime schedule their per-peer verdict checks and heartbeat rounds
// on. Attach uses a private Host (one loop per detector, matching the
// old per-detector ticker) unless Config.Host names a shared one; a
// swarm of thousands of detectors shares a handful of Hosts so the
// per-tick cost is O(due timers), not O(detectors x peers). All methods
// are safe for concurrent use.
type Host struct {
	gran  time.Duration
	start time.Time

	mu     sync.Mutex
	slots  []*wheelTimer
	cur    int64 // last tick processed
	timers int

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	ticks atomic.Uint64
	fired atomic.Uint64
	busy  atomic.Int64

	// advance's scratch: reused across ticks so a busy wheel does not
	// allocate per tick.
	scratchT []*wheelTimer
	scratchG []uint64
}

// NewHost creates a detector timer host ticking at the given granularity
// (floored at 100µs; 0 selects 10ms) and starts its loop. Stop it with
// Stop when the last detector using it is gone.
func NewHost(granularity time.Duration) *Host {
	h := newWheel(granularity)
	go h.run()
	return h
}

// newWheel builds the wheel without starting the loop; tests drive
// advance by hand.
func newWheel(granularity time.Duration) *Host {
	if granularity <= 0 {
		granularity = 10 * time.Millisecond
	}
	if granularity < minGranularity {
		granularity = minGranularity
	}
	return &Host{
		gran:  granularity,
		start: time.Now(),
		slots: make([]*wheelTimer, wheelSlots),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Granularity returns the host's tick period.
func (h *Host) Granularity() time.Duration { return h.gran }

// Stats returns a snapshot of the host's timer-loop counters.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	timers := h.timers
	h.mu.Unlock()
	return HostStats{
		Ticks:  h.ticks.Load(),
		Fired:  h.fired.Load(),
		Timers: timers,
		Busy:   time.Duration(h.busy.Load()),
	}
}

// Stop terminates the host's loop and waits for it to exit. Scheduled
// timers are abandoned in place; detectors cancel their own on detach.
func (h *Host) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

func (h *Host) run() {
	defer close(h.done)
	tk := time.NewTicker(h.gran)
	defer tk.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tk.C:
		}
		h.advance(time.Now())
	}
}

// tickAt maps a wall-clock instant to an absolute wheel tick.
func (h *Host) tickAt(t time.Time) int64 {
	return int64(t.Sub(h.start) / h.gran)
}

// schedule (re)schedules t to fire d from now. Safe to call from timer
// callbacks and under detector locks (it takes only h.mu).
func (h *Host) schedule(t *wheelTimer, d time.Duration) {
	now := time.Now()
	h.mu.Lock()
	h.scheduleLocked(t, now.Add(d))
	h.mu.Unlock()
}

func (h *Host) scheduleLocked(t *wheelTimer, at time.Time) {
	t.gen++
	if t.linked {
		h.unlink(t)
	}
	due := h.tickAt(at)
	if due <= h.cur {
		due = h.cur + 1
	}
	t.due = due
	h.link(t)
}

// cancel unschedules t; an in-flight firing observes the generation bump
// and does not re-arm.
func (h *Host) cancel(t *wheelTimer) {
	h.mu.Lock()
	t.gen++
	if t.linked {
		h.unlink(t)
	}
	h.mu.Unlock()
}

func (h *Host) link(t *wheelTimer) {
	i := t.due & (wheelSlots - 1)
	t.prev = nil
	t.next = h.slots[i]
	if t.next != nil {
		t.next.prev = t
	}
	h.slots[i] = t
	t.linked = true
	h.timers++
}

func (h *Host) unlink(t *wheelTimer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		h.slots[t.due&(wheelSlots-1)] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
	t.linked = false
	h.timers--
}

// advance processes every tick up to now: due timers are collected under
// the lock into reused scratch, then fired without it (callbacks take
// detector locks, which themselves call back into schedule — holding
// h.mu across them would deadlock). A timer rescheduled or cancelled
// while its callback ran wins over the callback's own re-arm, resolved
// by the generation counter.
func (h *Host) advance(now time.Time) {
	t0 := time.Now()
	h.mu.Lock()
	target := h.tickAt(now)
	prev := h.cur
	due := h.scratchT[:0]
	gens := h.scratchG[:0]
	for h.cur < target {
		h.cur++
		for t := h.slots[h.cur&(wheelSlots-1)]; t != nil; {
			nx := t.next
			if t.due <= h.cur {
				h.unlink(t)
				due = append(due, t)
				gens = append(gens, t.gen)
			}
			t = nx
		}
	}
	h.scratchT, h.scratchG = due, gens
	h.mu.Unlock()
	if target > prev {
		h.ticks.Add(uint64(target - prev))
	}
	for i, t := range due {
		d := t.fire(now)
		h.fired.Add(1)
		if d < 0 {
			continue
		}
		h.mu.Lock()
		if t.gen == gens[i] {
			h.scheduleLocked(t, now.Add(d))
		}
		h.mu.Unlock()
	}
	h.busy.Add(int64(time.Since(t0)))
}
