package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// decodeString encodes s into buf as a length-prefixed string and reads
// it back through Reader.String.
func decodeString(buf []byte, s string) string {
	return NewReader(AppendString(buf[:0], s)).String()
}

// collisions returns n distinct short strings that share one slot of the
// table.
func collisions(n int) []string {
	first := "collide-0"
	out := []string{first}
	for i := 1; len(out) < n; i++ {
		s := fmt.Sprintf("collide-%d", i)
		if internIndex([]byte(s)) == internIndex([]byte(first)) {
			out = append(out, s)
		}
	}
	return out
}

// A decoded string is a copy: overwriting the input after the decode,
// when the string missed the table and when it hit, changes nothing.
func TestInternDoesNotAliasInput(t *testing.T) {
	for _, name := range []string{"miss", "hit"} {
		buf := AppendString(nil, "alias-check-"+t.Name())
		r := NewReader(buf)
		s := r.String()
		q := NewReader(buf)
		prev := q.ReuseString("something else")
		for i := range buf {
			buf[i] = 'x'
		}
		if want := "alias-check-" + t.Name(); s != want || prev != want {
			t.Fatalf("%s: decoded %q and %q, want %q after the input was overwritten", name, s, prev, want)
		}
	}
}

// Goroutines decoding different strings that land in one slot each get
// their own bytes back, however the slot changes hands.
func TestInternSharedSlot(t *testing.T) {
	strs := collisions(4)
	var wg sync.WaitGroup
	for _, s := range strs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 64)
			for range 2000 {
				if got := decodeString(buf, s); got != s {
					t.Errorf("decoded %q, want %q", got, s)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A string longer than the table's limit is copied on every decode and
// never takes a slot.
func TestInternLongStringBypasses(t *testing.T) {
	long := strings.Repeat("l", internMax+1)
	buf := make([]byte, 0, 2*internMax)
	if got := decodeString(buf, long); got != long {
		t.Fatalf("decoded %q, want %q", got, long)
	}
	slot := &internTable[internIndex([]byte(long))]
	slot.mu.Lock()
	held := slot.s
	slot.mu.Unlock()
	if held == long {
		t.Fatalf("a %d-byte string took a slot", len(long))
	}
	if allocs := testing.AllocsPerRun(100, func() { decodeString(buf, long) }); allocs != 1 {
		t.Fatalf("decoding a %d-byte string again allocates %.2f times, want 1", len(long), allocs)
	}
}

// A miss costs the one copy; a hit costs nothing.
func TestInternAllocs(t *testing.T) {
	strs := collisions(2)
	buf := make([]byte, 0, 64)
	i := 0
	// Alternating two strings of one slot, each decode evicts the other.
	miss := testing.AllocsPerRun(100, func() {
		decodeString(buf, strs[i%2])
		i++
	})
	if miss != 1 {
		t.Fatalf("a miss allocates %.2f times, want 1", miss)
	}
	if hit := testing.AllocsPerRun(100, func() { decodeString(buf, strs[0]) }); hit != 0 {
		t.Fatalf("a hit allocates %.2f times, want 0", hit)
	}
}
