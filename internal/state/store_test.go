package state

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSetGetDelete(t *testing.T) {
	s := NewStore()
	s.Set("calendar.monday", []byte{9, 10, 11})
	got, ok := s.Get("calendar.monday")
	if !ok || !bytes.Equal(got, []byte{9, 10, 11}) {
		t.Fatalf("got %v %v", got, ok)
	}
	s.Delete("calendar.monday")
	if _, ok := s.Get("calendar.monday"); ok {
		t.Fatal("deleted variable still present")
	}
}

func TestGetMissing(t *testing.T) {
	if out, ok := NewStore().Get("nope"); ok || out != nil {
		t.Fatalf("out=%v ok=%v", out, ok)
	}
}

// TestStoredRecordIsACopy checks a store behaves like a disk: neither
// the slice handed to Set nor the one Get returned aliases the stored
// record, so mutating either leaves it unchanged.
func TestStoredRecordIsACopy(t *testing.T) {
	s := NewStore()
	in := []byte("stored")
	s.Set("v", in)
	in[0] = 'X'
	out, _ := s.Get("v")
	if string(out) != "stored" {
		t.Fatalf("mutating Set's argument changed the record to %q", out)
	}
	out[0] = 'Y'
	if again, _ := s.Get("v"); string(again) != "stored" {
		t.Fatalf("mutating Get's result changed the record to %q", again)
	}
	if err := s.TryAcquire("sess", AccessSet{Write: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	v, _ := s.View("sess")
	viewed, _, _ := v.Get("v")
	viewed[0] = 'Z'
	if again, _ := s.Get("v"); string(again) != "stored" {
		t.Fatalf("mutating View.Get's result changed the record to %q", again)
	}
	in = []byte("viewed")
	if err := v.Set("v", in); err != nil {
		t.Fatal(err)
	}
	in[0] = 'W'
	if again, _ := s.Get("v"); string(again) != "viewed" {
		t.Fatalf("mutating View.Set's argument changed the record to %q", again)
	}
}

func TestNames(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.Set(n, []byte{1})
	}
	got := s.Names()
	if len(got) != 3 || got[0] != "alpha" || got[2] != "zeta" {
		t.Fatalf("Names = %v", got)
	}
}

func TestInterferesRule(t *testing.T) {
	cases := []struct {
		name string
		a, b AccessSet
		want bool
	}{
		{"disjoint", AccessSet{Write: []string{"x"}}, AccessSet{Write: []string{"y"}}, false},
		{"write-write", AccessSet{Write: []string{"x"}}, AccessSet{Write: []string{"x"}}, true},
		{"write-read", AccessSet{Write: []string{"x"}}, AccessSet{Read: []string{"x"}}, true},
		{"read-write", AccessSet{Read: []string{"x"}}, AccessSet{Write: []string{"x"}}, true},
		{"read-read", AccessSet{Read: []string{"x"}}, AccessSet{Read: []string{"x"}}, false},
		{"empty", AccessSet{}, AccessSet{Write: []string{"x"}}, false},
	}
	for _, c := range cases {
		if got := c.a.Interferes(c.b); got != c.want {
			t.Errorf("%s: Interferes = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Interferes(c.a); got != c.want {
			t.Errorf("%s (sym): Interferes = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestInterferenceIsSymmetricProperty(t *testing.T) {
	f := func(ar, aw, br, bw []string) bool {
		a := AccessSet{Read: ar, Write: aw}
		b := AccessSet{Read: br, Write: bw}
		return a.Interferes(b) == b.Interferes(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTryAcquireConflictAndRelease(t *testing.T) {
	s := NewStore()
	cal := AccessSet{Read: []string{"mon", "fri"}, Write: []string{"mon"}}
	doc := AccessSet{Read: []string{"doc"}, Write: []string{"doc"}}
	if err := s.TryAcquire("meeting-1", cal); err != nil {
		t.Fatal(err)
	}
	// Disjoint session runs concurrently.
	if err := s.TryAcquire("design-1", doc); err != nil {
		t.Fatalf("disjoint session rejected: %v", err)
	}
	// Interfering session is rejected.
	cal2 := AccessSet{Write: []string{"fri"}}
	err := s.TryAcquire("meeting-2", cal2)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	s.Release("meeting-1")
	if err := s.TryAcquire("meeting-2", cal2); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestTryAcquireDuplicateSession(t *testing.T) {
	s := NewStore()
	if err := s.TryAcquire("s", AccessSet{}); err != nil {
		t.Fatal(err)
	}
	if err := s.TryAcquire("s", AccessSet{}); err == nil {
		t.Fatal("duplicate session id accepted")
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	s := NewStore()
	acc := AccessSet{Write: []string{"x"}}
	if err := s.TryAcquire("first", acc); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- s.Acquire("second", acc) }()
	select {
	case <-acquired:
		t.Fatal("Acquire did not block on interference")
	case <-time.After(50 * time.Millisecond):
	}
	s.Release("first")
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire never woke")
	}
}

func TestCloseUnblocksAcquire(t *testing.T) {
	s := NewStore()
	if err := s.TryAcquire("holder", AccessSet{Write: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	errC := make(chan error, 1)
	go func() { errC <- s.Acquire("waiter", AccessSet{Read: []string{"x"}}) }()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-errC:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire not unblocked by Close")
	}
}

func TestViewEnforcesAccess(t *testing.T) {
	s := NewStore()
	s.Set("mon", []byte("free"))
	s.Set("tue", []byte("busy"))
	acc := AccessSet{Read: []string{"mon"}, Write: []string{"mon"}}
	if err := s.TryAcquire("cal", acc); err != nil {
		t.Fatal(err)
	}
	v, err := s.View("cal")
	if err != nil {
		t.Fatal(err)
	}
	if val, ok, err := v.Get("mon"); !ok || err != nil || string(val) != "free" {
		t.Fatalf("allowed read failed: %v %v %q", ok, err, val)
	}
	if _, _, err := v.Get("tue"); !errors.Is(err, ErrDenied) {
		t.Fatalf("out-of-set read err = %v, want ErrDenied", err)
	}
	if err := v.Set("mon", []byte("booked")); err != nil {
		t.Fatalf("allowed write failed: %v", err)
	}
	if err := v.Set("tue", []byte("x")); !errors.Is(err, ErrDenied) {
		t.Fatalf("out-of-set write err = %v, want ErrDenied", err)
	}
}

func TestViewReadOnlyVariableCannotBeWritten(t *testing.T) {
	s := NewStore()
	if err := s.TryAcquire("sess", AccessSet{Read: []string{"r"}}); err != nil {
		t.Fatal(err)
	}
	v, _ := s.View("sess")
	if err := v.Set("r", []byte{1}); !errors.Is(err, ErrDenied) {
		t.Fatalf("read-only write err = %v", err)
	}
}

func TestViewForUnknownSession(t *testing.T) {
	if _, err := NewStore().View("ghost"); err == nil {
		t.Fatal("view for non-live session granted")
	}
}

func TestLiveSessions(t *testing.T) {
	s := NewStore()
	_ = s.TryAcquire("b", AccessSet{})
	_ = s.TryAcquire("a", AccessSet{})
	got := s.LiveSessions()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("LiveSessions = %v", got)
	}
}

func TestConcurrentDisjointAcquires(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			acc := AccessSet{Write: []string{string(rune('a' + i))}}
			id := string(rune('A' + i))
			if err := s.Acquire(id, acc); err != nil {
				t.Error(err)
				return
			}
			s.Release(id)
		}(i)
	}
	wg.Wait()
}

func TestSerializedConflictingSessionsAllComplete(t *testing.T) {
	s := NewStore()
	acc := AccessSet{Write: []string{"shared"}}
	var wg sync.WaitGroup
	var concurrent, max int
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('0' + i))
			if err := s.Acquire(id, acc); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			concurrent++
			if concurrent > max {
				max = concurrent
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			concurrent--
			mu.Unlock()
			s.Release(id)
		}(i)
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("interfering sessions overlapped: max concurrency %d", max)
	}
}
