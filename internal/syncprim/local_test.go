package syncprim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierReleasesAllParties(t *testing.T) {
	const n = 8
	b := NewBarrier(n)
	var before, after atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			before.Add(1)
			b.Await()
			after.Add(1)
		}()
	}
	wg.Wait()
	if before.Load() != n || after.Load() != n {
		t.Fatalf("before=%d after=%d", before.Load(), after.Load())
	}
}

func TestBarrierIsCyclic(t *testing.T) {
	const n, rounds = 4, 5
	b := NewBarrier(n)
	var wg sync.WaitGroup
	got := make([][]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[i] = append(got[i], b.Await())
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		for r := 0; r < rounds; r++ {
			if got[i][r] != r {
				t.Fatalf("party %d round %d returned %d", i, r, got[i][r])
			}
		}
	}
}

func TestBarrierBlocksUntilFull(t *testing.T) {
	b := NewBarrier(2)
	done := make(chan struct{})
	go func() { b.Await(); close(done) }()
	select {
	case <-done:
		t.Fatal("barrier released with one party")
	case <-time.After(50 * time.Millisecond):
	}
	b.Await()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("barrier never released")
	}
}

func TestBarrierPanicsOnBadParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=0")
		}
	}()
	NewBarrier(0)
}

func TestSemaphoreBasic(t *testing.T) {
	s := NewSemaphore(3)
	if err := s.Acquire(2); err != nil {
		t.Fatal(err)
	}
	if s.Permits() != 1 {
		t.Fatalf("permits = %d", s.Permits())
	}
	if !s.TryAcquire(1) {
		t.Fatal("TryAcquire failed with permit available")
	}
	if s.TryAcquire(1) {
		t.Fatal("TryAcquire succeeded with no permits")
	}
	s.Release(3)
	if s.Permits() != 3 {
		t.Fatalf("permits = %d", s.Permits())
	}
}

func TestSemaphoreBlocksAndWakes(t *testing.T) {
	s := NewSemaphore(0)
	done := make(chan error, 1)
	go func() { done <- s.Acquire(2) }()
	select {
	case <-done:
		t.Fatal("acquired permits that do not exist")
	case <-time.After(50 * time.Millisecond):
	}
	s.Release(1)
	select {
	case <-done:
		t.Fatal("acquired with insufficient permits")
	case <-time.After(50 * time.Millisecond):
	}
	s.Release(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never acquired")
	}
}

func TestSemaphoreFIFOPreventsStarvation(t *testing.T) {
	s := NewSemaphore(0)
	bigDone := make(chan struct{})
	go func() { _ = s.Acquire(3); close(bigDone) }()
	time.Sleep(20 * time.Millisecond)
	smallDone := make(chan struct{})
	go func() { _ = s.Acquire(1); close(smallDone) }()
	// Release enough for the small request but not the big one: FIFO
	// means the small one must stay queued behind the big one.
	s.Release(1)
	select {
	case <-smallDone:
		t.Fatal("small request jumped the queue")
	case <-time.After(100 * time.Millisecond):
	}
	// TryAcquire must also refuse to jump the queue.
	if s.TryAcquire(1) {
		t.Fatal("TryAcquire jumped the queue")
	}
	s.Release(2)
	<-bigDone
	s.Release(1)
	<-smallDone
}

func TestSemaphoreClose(t *testing.T) {
	s := NewSemaphore(0)
	done := make(chan error, 1)
	go func() { done <- s.Acquire(1) }()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not released by Close")
	}
	if err := s.Acquire(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
}

func TestSemaphoreMutualExclusionStress(t *testing.T) {
	s := NewSemaphore(1)
	var in, max int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := s.Acquire(1); err != nil {
					t.Error(err)
					return
				}
				v := atomic.AddInt32(&in, 1)
				if v > atomic.LoadInt32(&max) {
					atomic.StoreInt32(&max, v)
				}
				atomic.AddInt32(&in, -1)
				s.Release(1)
			}
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("mutual exclusion violated: max=%d", max)
	}
}

func TestSingleAssignment(t *testing.T) {
	v := NewSingleAssignment[string]()
	if _, ok := v.TryGet(); ok {
		t.Fatal("unset variable readable")
	}
	got := make(chan string, 1)
	go func() { got <- v.Get() }()
	select {
	case <-got:
		t.Fatal("Get returned before Set")
	case <-time.After(50 * time.Millisecond):
	}
	if err := v.Set("answer"); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "answer" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never unblocked")
	}
	if err := v.Set("other"); !errors.Is(err, ErrAlreadySet) {
		t.Fatalf("second set: %v", err)
	}
	if s := v.Get(); s != "answer" {
		t.Fatalf("value overwritten: %q", s)
	}
	select {
	case <-v.Done():
	default:
		t.Fatal("Done not closed")
	}
}

func TestSingleAssignmentConcurrentSetters(t *testing.T) {
	v := NewSingleAssignment[int]()
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if v.Set(i) == nil {
				wins.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d setters won", wins.Load())
	}
}

func TestBoundedChannelFIFO(t *testing.T) {
	c := NewBoundedChannel[int](4)
	for i := 0; i < 4; i++ {
		if err := c.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	for i := 0; i < 4; i++ {
		v, err := c.Take()
		if err != nil || v != i {
			t.Fatalf("take %d = %d, %v", i, v, err)
		}
	}
}

func TestBoundedChannelBlocksWhenFull(t *testing.T) {
	c := NewBoundedChannel[int](1)
	if err := c.Put(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Put(2) }()
	select {
	case <-done:
		t.Fatal("Put did not block on full channel")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := c.Take(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Put never unblocked")
	}
}

func TestBoundedChannelCloseDrains(t *testing.T) {
	c := NewBoundedChannel[string](2)
	if err := c.Put("a"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Put("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if v, err := c.Take(); err != nil || v != "a" {
		t.Fatalf("drain = %q, %v", v, err)
	}
	if _, err := c.Take(); !errors.Is(err, ErrClosed) {
		t.Fatalf("take on empty closed: %v", err)
	}
}

func TestBoundedChannelProducerConsumer(t *testing.T) {
	c := NewBoundedChannel[int](8)
	const total = 1000
	var sum int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= total; i++ {
			if err := c.Put(i); err != nil {
				t.Error(err)
				return
			}
		}
		c.Close()
	}()
	go func() {
		defer wg.Done()
		for {
			v, err := c.Take()
			if err != nil {
				return
			}
			sum += int64(v)
		}
	}()
	wg.Wait()
	if want := int64(total * (total + 1) / 2); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}
