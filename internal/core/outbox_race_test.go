package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// countingMulticaster records Multicast calls and the stamps they carry.
type countingMulticaster struct {
	mu    sync.Mutex
	calls uint64
	last  uint64
}

func (c *countingMulticaster) Multicast(outbox, session string, lamport uint64, msg wire.Msg) error {
	c.mu.Lock()
	c.calls++
	c.last = lamport
	c.mu.Unlock()
	return nil
}

// TestOutboxConcurrentMutation hammers one outbox from many goroutines —
// Add, Delete, Clear, Send, SendTo, Destinations, SetMulticast — and
// relies on the race detector to catch unsynchronised access. After the
// storm the outbox must still work.
func TestOutboxConcurrentMutation(t *testing.T) {
	w := newWorld(t)
	src := w.dapplet("h", "src")
	sink := w.dapplet("h", "sink")
	refs := make([]wire.InboxRef, 4)
	for i := range refs {
		refs[i] = sink.Inbox(fmt.Sprintf("in%d", i)).Ref()
	}
	out := src.Outbox("out")
	mc := &countingMulticaster{}

	const loops = 200
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ref := refs[g%len(refs)]
			for i := 0; i < loops; i++ {
				switch g % 4 {
				case 0:
					out.Add(ref)
					_ = out.Delete(ref)
				case 1:
					_ = out.Send(&wire.Text{S: "x"})
					_ = out.SendTo(ref, &wire.Text{S: "y"})
				case 2:
					out.Destinations()
					if i%16 == 0 {
						out.Clear()
					}
				case 3:
					out.SetMulticast(mc)
					out.SetMulticast(nil)
				}
			}
		}(g)
	}
	wg.Wait()

	// The outbox still delivers after the storm.
	out.Clear()
	out.SetMulticast(nil)
	out.Add(refs[0])
	if err := out.Send(&wire.Text{S: "alive"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		env, err := recvWithin(sink.Inbox("in0"), time.Until(deadline))
		if err != nil {
			t.Fatalf("outbox dead after concurrent mutation: %v", err)
		}
		if env.Body.(*wire.Text).S == "alive" {
			break
		}
	}
}

// TestSendToDeleteRace races SendTo against Delete/Add of the same
// binding: every call must either send on a live binding (nil error) or
// observe the unbound state (ErrNotBound) — never panic, race, or stamp
// a message after the binding check was invalidated.
func TestSendToDeleteRace(t *testing.T) {
	w := newWorld(t)
	src := w.dapplet("h", "s")
	dst := w.dapplet("h", "d")
	ref := dst.Inbox("in").Ref()
	out := src.Outbox("out")
	out.Add(ref)

	var sent atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			err := out.SendTo(ref, &wire.Text{S: "r"})
			switch {
			case err == nil:
				sent.Add(1)
			case errors.Is(err, ErrNotBound):
			default:
				t.Errorf("SendTo: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		_ = out.Delete(ref)
		out.Add(ref)
	}
	<-done

	// Every successful SendTo counted toward the outbox's sent counter
	// (the check-and-stamp step is atomic, so none slipped through after
	// a Delete without being counted).
	if got := out.Sent(); got < sent.Load() {
		t.Fatalf("Sent() = %d < %d successful SendTo calls", got, sent.Load())
	}
	drained := 0
	for {
		if _, err := recvWithin(dst.Inbox("in"), 200*time.Millisecond); err != nil {
			break
		}
		drained++
	}
	if uint64(drained) != sent.Load() {
		t.Fatalf("delivered %d, want %d (successful SendTo calls)", drained, sent.Load())
	}
}

// TestOutboxMulticastToggleRace toggles tree mode on and off while
// sending: each Send must take exactly one path, and the Sent counter
// must account for every call.
func TestOutboxMulticastToggleRace(t *testing.T) {
	w := newWorld(t)
	src := w.dapplet("h", "s")
	out := src.Outbox("out")
	mc := &countingMulticaster{}

	var wg sync.WaitGroup
	const sends = 400
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < sends; i++ {
			if err := out.Send(&wire.Text{S: "t"}); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < sends; i++ {
			out.SetMulticast(mc)
			out.SetMulticast(nil)
		}
	}()
	wg.Wait()

	if got := out.Sent(); got != sends {
		t.Fatalf("Sent() = %d, want %d", got, sends)
	}
	mc.mu.Lock()
	calls := mc.calls
	mc.mu.Unlock()
	if calls > sends {
		t.Fatalf("multicaster saw %d calls for %d sends", calls, sends)
	}
}
