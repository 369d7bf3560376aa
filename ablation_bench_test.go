package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkAblationHierarchy compares the Figure 1 hierarchical wiring
// (per-site secretaries aggregating availability) against a flat session
// where the coordinator talks to every member over the WAN directly. The
// secretary layer trades local aggregation hops for fewer WAN round
// trips per member.
func BenchmarkAblationHierarchy(b *testing.B) {
	for _, mode := range []string{"hierarchical", "flat"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
					Sites: 4, MembersPerSite: 4, Hierarchical: mode == "hierarchical",
					Slots: 64, BusyProb: 0.5, CommonSlot: 40, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := w.Scheduler.Schedule(context.Background(), 0, 64, 64); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st := w.Net.Stats()
				b.ReportMetric(float64(st.MaxVirtual.Milliseconds()), "vlat-ms")
				b.ReportMetric(float64(st.Sent), "datagrams")
				w.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationWindow sweeps the negotiation window: querying the
// whole horizon at once minimizes rounds but ships larger availability
// maps; narrow windows take more rounds. The common slot sits late in the
// horizon so windowed searches must iterate.
func BenchmarkAblationWindow(b *testing.B) {
	for _, window := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := scenario.BuildCalendar(context.Background(), scenario.CalendarOptions{
					Sites: 6, MembersPerSite: 1, Hierarchical: false,
					Slots: 64, BusyProb: 1.0, CommonSlot: 60, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := w.Scheduler.Schedule(context.Background(), 0, 64, window)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(res.Rounds), "rounds")
				b.ReportMetric(float64(w.Net.MaxVirtual().Milliseconds()), "vlat-ms")
				w.Close()
				b.StartTimer()
			}
		})
	}
}
