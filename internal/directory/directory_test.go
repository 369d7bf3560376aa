package directory

import (
	"context"
	"sync"
	"testing"

	"repro/internal/netsim"
)

func entry(name, typ string, port uint16) Entry {
	return Entry{Name: name, Type: typ, Addr: netsim.Addr{Host: "h", Port: port}}
}

func TestRegisterLookupRemove(t *testing.T) {
	ctx := context.Background()
	d := New()
	d.Register(ctx, entry("mani-cal", "calendar", 1))
	e, ok := d.Lookup(ctx, "mani-cal")
	if !ok || e.Type != "calendar" || e.Addr.Port != 1 {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	d.Remove(ctx, "mani-cal")
	if _, ok := d.Lookup(ctx, "mani-cal"); ok {
		t.Fatal("removed entry still present")
	}
}

func TestRegisterReplaces(t *testing.T) {
	ctx := context.Background()
	d := New()
	d.Register(ctx, entry("x", "a", 1))
	d.Register(ctx, entry("x", "b", 2))
	e, _ := d.Lookup(ctx, "x")
	if e.Type != "b" || e.Addr.Port != 2 {
		t.Fatalf("replace failed: %+v", e)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestMustLookup(t *testing.T) {
	ctx := context.Background()
	d := New()
	if _, err := d.MustLookup(ctx, "ghost"); err == nil {
		t.Fatal("missing name did not error")
	}
	d.Register(ctx, entry("real", "t", 3))
	if _, err := d.MustLookup(ctx, "real"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	ctx := context.Background()
	d := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			d.Register(ctx, entry(name, "t", uint16(i)))
			d.Lookup(ctx, name)
		}(i)
	}
	wg.Wait()
	if d.Len() != 16 {
		t.Fatalf("Len = %d", d.Len())
	}
}
