package failure

import (
	"runtime"
	"sync"
)

// Detector timers decide when work is due; a workQueue decides where it
// runs. A fired runtime timer starts its callback on a fresh goroutine,
// so a swarm of detectors whose timers fall due together would keep
// hundreds of heartbeat rounds and verdict checks runnable at once, and
// they would starve the receive loops that deliver the very beacons the
// verdicts wait for. Instead each timer callback only queues its work,
// and at most GOMAXPROCS goroutines (two on a single-CPU process, so one
// observer that blocks cannot stop the queue) drain it in arrival order.
// They start when work arrives and exit when the queue is empty, so an
// idle process parks none. Under overload the queue grows and heartbeat
// rounds and verdict checks slip together, rather than verdicts firing
// on time against beacons still waiting to be read.
type workQueue struct {
	mu      sync.Mutex
	q       []func()
	head    int
	drainer int
}

// work is the process-wide queue every detector's timers feed.
var work workQueue

// run queues f and starts a drainer if fewer than the bound are running.
func (w *workQueue) run(f func()) {
	w.mu.Lock()
	if w.head > 0 && len(w.q) == cap(w.q) { // reuse the drained prefix
		n := copy(w.q, w.q[w.head:])
		clear(w.q[n:])
		w.q, w.head = w.q[:n], 0
	}
	w.q = append(w.q, f)
	if w.drainer >= max(2, runtime.GOMAXPROCS(0)) {
		w.mu.Unlock()
		return
	}
	w.drainer++
	w.mu.Unlock()
	go w.drain()
}

// drain runs queued work until the queue is empty, then exits.
func (w *workQueue) drain() {
	for { //wwlint:allow goleak the loop returns as soon as the queue is empty; queued work is bounded by the detectors' timers
		w.mu.Lock()
		if w.head == len(w.q) {
			w.q, w.head = w.q[:0], 0
			w.drainer--
			w.mu.Unlock()
			return
		}
		f := w.q[w.head]
		w.q[w.head] = nil
		w.head++
		w.mu.Unlock()
		f()
	}
}
