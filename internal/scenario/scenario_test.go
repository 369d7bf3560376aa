package scenario_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/world"
)

func TestBuildCalendarDefaults(t *testing.T) {
	w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{Seed: 1, CommonSlot: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(w.MemberNames) != 9 { // 3 sites x 3 members by default
		t.Fatalf("members = %d", len(w.MemberNames))
	}
	if w.Handle == nil || w.Scheduler == nil || w.Traditional == nil {
		t.Fatal("world incomplete")
	}
	// The session is live on every member.
	for _, name := range w.MemberNames {
		d, ok := w.RT.Dapplet(name)
		if !ok {
			t.Fatalf("dapplet %s missing", name)
		}
		if got := d.Store().LiveSessions(); len(got) != 1 {
			t.Fatalf("%s live sessions = %v", name, got)
		}
	}
}

func TestBuildCalendarDeterministicPerSeed(t *testing.T) {
	build := func() []bool {
		w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
			Sites: 1, MembersPerSite: 1, Hierarchical: false,
			Slots: 32, BusyProb: 0.5, CommonSlot: -1, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		m := w.Members[w.MemberNames[0]]
		out := make([]bool, 32)
		for i := range out {
			out[i] = m.Busy(i)
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded calendars differ at slot %d", i)
		}
	}
}

func TestBuildDesignWorld(t *testing.T) {
	ctx := context.Background()
	w, err := scenario.BuildDesign(ctx, scenario.DesignOptions{Designers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(w.Designers) != 2 || w.Handle == nil {
		t.Fatal("design world incomplete")
	}
	if _, err := w.Designers[0].Edit(ctx, "frame", "x"); err != nil {
		t.Fatal(err)
	}
	if !w.Designers[1].WaitVersion("frame", 1, 5*time.Second) {
		t.Fatal("mesh links not wired")
	}
}

func TestBuildCardGameWorld(t *testing.T) {
	w, err := scenario.BuildCardGame(context.Background(), scenario.CardOptions{Players: 3, HandSize: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.TotalCards() != 6 {
		t.Fatalf("dealt %d cards", w.TotalCards())
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.CardsHeld() != 6 {
		if time.Now().After(deadline) {
			t.Fatal("deal incomplete")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSecretaryCrashRecovery(t *testing.T) {
	res, err := scenario.RunSecretaryCrashRecovery(context.Background(), scenario.RecoveryOptions{
		Calendar: scenario.CalendarOptions{
			Sites: 3, MembersPerSite: 2, Slots: 64,
			BusyProb: 0.5, CommonSlot: 40, Seed: 7, Shards: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Slot != 40 {
		t.Fatalf("scheduled slot %d, want the forced common slot 40", res.Result.Slot)
	}
	if res.Retries < 1 {
		t.Fatalf("retries = %d; the crash must abandon at least one round", res.Retries)
	}
	if res.Detection <= 0 || res.Recovery <= 0 {
		t.Fatalf("latencies not measured: detection=%v recovery=%v", res.Detection, res.Recovery)
	}
}

// TestCalendarWithDirectoryService builds the calendar world on the
// replicated directory service (2 shards x 2 replicas) instead of the
// in-process map: session setup resolves every participant through the
// caching client, a full meeting schedules, and after one replica of
// every shard is crashed all lookups still succeed through the
// survivors.
func TestCalendarWithDirectoryService(t *testing.T) {
	w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
		Sites: 2, MembersPerSite: 2, Hierarchical: false,
		Slots: 64, BusyProb: 0.5, CommonSlot: 40, Seed: 9,
		DirShards: 2, DirReplicas: 2, DirTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.DirClient == nil {
		t.Fatal("service-backed world has no directory client")
	}
	res, err := w.Scheduler.Schedule(context.Background(), 0, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slot > 40 {
		t.Fatalf("scheduled slot %d, want <= 40", res.Slot)
	}
	// Registration primes the cache, so session setup resolves from it.
	if st := w.DirClient.Stats(); st.Hits == 0 {
		t.Fatal("session setup never hit the directory cache")
	}
	// An uncached name travels to the service.
	w.DirClient.Invalidate(w.MemberNames[0])
	if _, err := w.Dir.MustLookup(context.Background(), w.MemberNames[0]); err != nil {
		t.Fatal(err)
	}
	if st := w.DirClient.Stats(); st.Misses == 0 {
		t.Fatal("no lookup ever travelled to the directory service")
	}

	// A replica of every shard dies; lookups must fail over to the
	// survivors, uncached.
	for s := 0; s < 2; s++ {
		w.Net.Crash(world.DirReplicaHost(s, 0))
	}
	w.DirClient.FlushCache()
	for _, name := range w.MemberNames {
		if _, err := w.Dir.MustLookup(context.Background(), name); err != nil {
			t.Fatalf("lookup %s after replica crash: %v", name, err)
		}
	}
	if w.DirClient.Stats().Failovers == 0 {
		t.Fatal("no failover counted after replica crash")
	}
}

// TestBuildFailureReleasesWorld fails every builder on a context
// cancelled before the call and requires the goroutine count back at its
// pre-build value: a builder that returns an error must close the world
// it had started (network shards, dapplet pumps, receive loops, the
// hosted directory).
func TestBuildFailureReleasesWorld(t *testing.T) {
	builders := []struct {
		name  string
		build func(ctx context.Context) error
	}{
		{"card", func(ctx context.Context) error {
			_, err := scenario.BuildCardGame(ctx, scenario.CardOptions{Seed: 1})
			return err
		}},
		{"design", func(ctx context.Context) error {
			_, err := scenario.BuildDesign(ctx, scenario.DesignOptions{Seed: 1})
			return err
		}},
		{"calendar", func(ctx context.Context) error {
			_, err := scenario.BuildCalendar(ctx, scenario.CalendarOptions{Seed: 1, Hierarchical: true})
			return err
		}},
		{"calendar/dir-service", func(ctx context.Context) error {
			_, err := scenario.BuildCalendar(ctx, scenario.CalendarOptions{Seed: 1, Hierarchical: true, DirShards: 1})
			return err
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := b.build(ctx); err == nil {
				t.Fatal("build succeeded on a cancelled context")
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines 1s after the failed build, %d before\n%s",
						runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
