package lclock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestTickMonotonic(t *testing.T) {
	c := New("p1")
	prev := c.Now()
	for i := 0; i < 100; i++ {
		now := c.Tick()
		if now <= prev {
			t.Fatalf("tick not monotonic: %d after %d", now, prev)
		}
		prev = now
	}
}

func TestSnapshotCriterion(t *testing.T) {
	// Every message sent at sender time T must be received when the
	// receiver's clock exceeds T.
	a, b := New("a"), New("b")
	for i := 0; i < 1000; i++ {
		ts := a.StampSend()
		after := b.ObserveRecv(ts)
		if after <= ts {
			t.Fatalf("criterion violated: recv clock %d <= send stamp %d", after, ts)
		}
	}
}

func TestObserveRecvDoesNotRewind(t *testing.T) {
	c := New("x")
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	before := c.Now()
	after := c.ObserveRecv(3) // stale stamp
	if after < before {
		t.Fatalf("clock rewound from %d to %d", before, after)
	}
}

func TestConcurrentTickersNoLostUpdates(t *testing.T) {
	c := New("x")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Tick()
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != workers*per {
		t.Fatalf("clock = %d, want %d", got, workers*per)
	}
}

func TestStampTotalOrder(t *testing.T) {
	// Less is a strict total order: antisymmetric, transitive on samples,
	// and ties break by id.
	f := func(t1, t2 uint64, id1, id2 string) bool {
		a, b := Stamp{t1, id1}, Stamp{t2, id2}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !(Stamp{5, "a"}).Less(Stamp{5, "b"}) {
		t.Fatal("tie not broken by lower id")
	}
	if !(Stamp{4, "z"}).Less(Stamp{5, "a"}) {
		t.Fatal("earlier time must win regardless of id")
	}
}

func TestStampString(t *testing.T) {
	if s := (Stamp{7, "p2"}).String(); s != "7@p2" {
		t.Fatalf("String = %q", s)
	}
}

func TestCausalChainProperty(t *testing.T) {
	// Across any chain of sends, Lamport stamps strictly increase.
	f := func(hops uint8) bool {
		n := int(hops%16) + 2
		clocks := make([]*Clock, n)
		for i := range clocks {
			clocks[i] = New(string(rune('a' + i)))
		}
		prev := uint64(0)
		for i := 0; i < n-1; i++ {
			ts := clocks[i].StampSend()
			if ts <= prev && i > 0 {
				return false
			}
			clocks[i+1].ObserveRecv(ts)
			prev = ts
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
