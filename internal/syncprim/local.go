package syncprim

import (
	"errors"
	"sync"
)

// Errors returned by the synchronization constructs.
var (
	// ErrAlreadySet is returned by SingleAssignment.Set on reassignment.
	ErrAlreadySet = errors.New("syncprim: single-assignment variable already set")
	// ErrClosed is returned by operations on closed constructs.
	ErrClosed = errors.New("syncprim: closed")
)

// Barrier is a cyclic barrier for n threads within one dapplet: Await
// blocks until n threads have arrived, then releases them all and resets
// for the next round.
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	round int
}

// NewBarrier creates a barrier for n parties (n >= 1).
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("syncprim: barrier parties must be >= 1")
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all parties arrive and returns the completed round's
// index (0 for the first round).
func (b *Barrier) Await() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	b.count++
	if b.count == b.n {
		b.count = 0
		b.round++
		b.cond.Broadcast()
		return round
	}
	for round == b.round {
		b.cond.Wait()
	}
	return round
}

// Semaphore is a counting semaphore with FIFO granting: waiters acquire
// in arrival order, so a large acquisition cannot be starved by a stream
// of small ones.
type Semaphore struct {
	mu      sync.Mutex
	permits int
	waiters []*semWaiter
	closed  bool
}

type semWaiter struct {
	n  int
	ch chan struct{}
}

// NewSemaphore creates a semaphore with the given initial permits.
func NewSemaphore(permits int) *Semaphore {
	if permits < 0 {
		panic("syncprim: negative permits")
	}
	return &Semaphore{permits: permits}
}

// Acquire blocks until n permits are available and takes them.
//
//wwlint:allow ctxcheck process-local primitive; Close unblocks waiters with ErrClosed
func (s *Semaphore) Acquire(n int) error {
	if n <= 0 {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if len(s.waiters) == 0 && s.permits >= n {
		s.permits -= n
		s.mu.Unlock()
		return nil
	}
	w := &semWaiter{n: n, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	<-w.ch
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return nil
}

// TryAcquire takes n permits without blocking, reporting success. It
// fails while earlier arrivals are waiting, preserving FIFO order.
func (s *Semaphore) TryAcquire(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.waiters) > 0 || s.permits < n {
		return false
	}
	s.permits -= n
	return true
}

// Release returns n permits and wakes eligible waiters in FIFO order.
func (s *Semaphore) Release(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.permits += n
	s.grantLocked()
	s.mu.Unlock()
}

// Permits returns the currently available permits.
func (s *Semaphore) Permits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.permits
}

// Close fails all current and future waiters with ErrClosed.
func (s *Semaphore) Close() {
	s.mu.Lock()
	s.closed = true
	ws := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, w := range ws {
		close(w.ch)
	}
}

func (s *Semaphore) grantLocked() {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if s.permits < w.n {
			return // strict FIFO: later smaller requests must wait too
		}
		s.permits -= w.n
		s.waiters = s.waiters[1:]
		close(w.ch)
	}
}

// SingleAssignment is a write-once variable: Get blocks until a value has
// been assigned; a second Set fails with ErrAlreadySet.
type SingleAssignment[T any] struct {
	mu   sync.Mutex
	set  bool
	val  T
	done chan struct{}
	once sync.Once
}

// NewSingleAssignment creates an unset single-assignment variable.
func NewSingleAssignment[T any]() *SingleAssignment[T] {
	return &SingleAssignment[T]{done: make(chan struct{})}
}

// Set assigns the value; only the first assignment succeeds.
func (v *SingleAssignment[T]) Set(val T) error {
	v.mu.Lock()
	if v.set {
		v.mu.Unlock()
		return ErrAlreadySet
	}
	v.set = true
	v.val = val
	v.mu.Unlock()
	v.once.Do(func() { close(v.done) })
	return nil
}

// Get blocks until the variable is assigned and returns its value.
//
//wwlint:allow ctxcheck the paper's single-assignment variable blocks until Assign by definition; Done exposes the channel for select
func (v *SingleAssignment[T]) Get() T {
	<-v.done
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.val
}

// TryGet returns the value if assigned.
func (v *SingleAssignment[T]) TryGet() (T, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.val, v.set
}

// Done returns a channel closed once the variable is assigned.
func (v *SingleAssignment[T]) Done() <-chan struct{} { return v.done }

// BoundedChannel is a FIFO buffer with a fixed capacity, the intra-dapplet
// channel construct of the paper's reliable thread library.
type BoundedChannel[T any] struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []T
	cap      int
	closed   bool
}

// NewBoundedChannel creates a channel with the given capacity (>= 1).
func NewBoundedChannel[T any](capacity int) *BoundedChannel[T] {
	if capacity < 1 {
		panic("syncprim: channel capacity must be >= 1")
	}
	c := &BoundedChannel[T]{cap: capacity}
	c.notFull = sync.NewCond(&c.mu)
	c.notEmpty = sync.NewCond(&c.mu)
	return c
}

// Put appends v, blocking while the channel is full.
func (c *BoundedChannel[T]) Put(v T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.buf) >= c.cap && !c.closed {
		c.notFull.Wait()
	}
	if c.closed {
		return ErrClosed
	}
	c.buf = append(c.buf, v)
	c.notEmpty.Signal()
	return nil
}

// Take removes the head, blocking while the channel is empty. A closed,
// drained channel returns ErrClosed.
func (c *BoundedChannel[T]) Take() (T, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.buf) == 0 && !c.closed {
		c.notEmpty.Wait()
	}
	var zero T
	if len(c.buf) == 0 {
		return zero, ErrClosed
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	c.notFull.Signal()
	return v, nil
}

// Len returns the buffered element count.
func (c *BoundedChannel[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// Close stops further Puts; Takes drain the buffer then fail.
func (c *BoundedChannel[T]) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.notFull.Broadcast()
	c.notEmpty.Broadcast()
}
