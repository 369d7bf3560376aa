package designdoc_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/designdoc"
	"repro/internal/scenario"
)

// ctx bounds nothing: these tests wait on their own timers.
var ctx = context.Background()

func build(t *testing.T, opts scenario.DesignOptions) *scenario.DesignWorld {
	t.Helper()
	w, err := scenario.BuildDesign(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestEditPropagatesToTeam(t *testing.T) {
	w := build(t, scenario.DesignOptions{Designers: 4, Parts: []string{"frame", "engine"}, Seed: 1})
	p, err := w.Designers[0].Edit(ctx, "frame", "v1 of the frame")
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != 1 {
		t.Fatalf("version = %d", p.Version)
	}
	for i, ds := range w.Designers {
		if !ds.WaitVersion("frame", 1, 5*time.Second) {
			t.Fatalf("designer %d never saw the edit", i)
		}
		got, _ := ds.Part("frame")
		if got.Text != "v1 of the frame" || got.Editor != "designer-0" {
			t.Fatalf("designer %d replica = %+v", i, got)
		}
	}
}

func TestInterestFiltering(t *testing.T) {
	// "Modifications ... are communicated to appropriate members":
	// designer 2 is not interested in "engine" and must not see it.
	w := build(t, scenario.DesignOptions{
		Designers: 3,
		Parts:     []string{"frame", "engine"},
		Interests: [][]string{{"frame", "engine"}, {"frame", "engine"}, {"frame"}},
		Seed:      2,
	})
	if _, err := w.Designers[0].Edit(ctx, "engine", "secret engine"); err != nil {
		t.Fatal(err)
	}
	if !w.Designers[1].WaitVersion("engine", 1, 5*time.Second) {
		t.Fatal("interested designer missed the edit")
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := w.Designers[2].Part("engine"); ok {
		t.Fatal("uninterested designer received the part")
	}
	// And editing outside one's interests fails.
	if _, err := w.Designers[2].Edit(ctx, "engine", "x"); !errors.Is(err, designdoc.ErrNotInterested) {
		t.Fatalf("err = %v, want ErrNotInterested", err)
	}
}

func TestSequentialEditsConverge(t *testing.T) {
	w := build(t, scenario.DesignOptions{Designers: 3, Parts: []string{"ui"}, Seed: 3})
	for v := 1; v <= 5; v++ {
		editor := w.Designers[v%3]
		// Wait until this editor has seen the previous version so its
		// version counter is current.
		if v > 1 && !editor.WaitVersion("ui", v-1, 5*time.Second) {
			t.Fatalf("editor missed version %d", v-1)
		}
		if _, err := editor.Edit(ctx, "ui", fmt.Sprintf("rev %d", v)); err != nil {
			t.Fatal(err)
		}
	}
	for i, ds := range w.Designers {
		if !ds.WaitVersion("ui", 5, 5*time.Second) {
			t.Fatalf("designer %d stuck before v5", i)
		}
		p, _ := ds.Part("ui")
		if p.Text != "rev 5" {
			t.Fatalf("designer %d text = %q", i, p.Text)
		}
	}
}

func TestConcurrentEditsWithTokensSerialize(t *testing.T) {
	w := build(t, scenario.DesignOptions{
		Designers: 4, Parts: []string{"spec"}, UseTokens: true, Seed: 4,
	})
	const perDesigner = 5
	var wg sync.WaitGroup
	for _, ds := range w.Designers {
		wg.Add(1)
		go func(ds *designdoc.Designer) {
			defer wg.Done()
			for k := 0; k < perDesigner; k++ {
				if _, err := ds.Edit(ctx, "spec", "concurrent edit"); err != nil {
					t.Error(err)
					return
				}
			}
		}(ds)
	}
	wg.Wait()
	// With write tokens, versions never collide: the final version is
	// exactly the number of edits.
	want := len(w.Designers) * perDesigner
	for i, ds := range w.Designers {
		if !ds.WaitVersion("spec", want, 10*time.Second) {
			p, _ := ds.Part("spec")
			t.Fatalf("designer %d at version %d, want %d", i, p.Version, want)
		}
	}
	if !w.Alloc.ConservationHolds() {
		t.Fatal("token conservation violated")
	}
}

func TestStalenessIgnored(t *testing.T) {
	w := build(t, scenario.DesignOptions{Designers: 2, Parts: []string{"p"}, Seed: 5})
	if _, err := w.Designers[0].Edit(ctx, "p", "first"); err != nil {
		t.Fatal(err)
	}
	if !w.Designers[1].WaitVersion("p", 1, 5*time.Second) {
		t.Fatal("propagation failed")
	}
	if _, err := w.Designers[1].Edit(ctx, "p", "second"); err != nil {
		t.Fatal(err)
	}
	if !w.Designers[0].WaitVersion("p", 2, 5*time.Second) {
		t.Fatal("second edit lost")
	}
	p, _ := w.Designers[0].Part("p")
	if p.Version != 2 || p.Text != "second" {
		t.Fatalf("replica = %+v", p)
	}
}
