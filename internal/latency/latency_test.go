package latency

import (
	"testing"
	"time"
)

// TestSummarizeRule pins the percentile rule at the sizes where
// candidate rules disagree: at n=100 the index (n-1)*p/100 picks sample
// 98 for p99 where n*p/100 would pick 99.
func TestSummarizeRule(t *testing.T) {
	for _, tc := range []struct {
		n                  int
		p50, p95, p99, max int // expected sample values; sample i has value i+1
	}{
		{1, 1, 1, 1, 1},
		{2, 1, 1, 1, 2},
		{100, 50, 95, 99, 100},
		{101, 51, 96, 100, 101},
	} {
		samples := make([]time.Duration, tc.n)
		for i := range samples {
			samples[i] = time.Duration(tc.n - i) // descending: Summarize must sort
		}
		got := Summarize(samples)
		want := Summary{Count: tc.n, P50: time.Duration(tc.p50), P95: time.Duration(tc.p95),
			P99: time.Duration(tc.p99), Max: time.Duration(tc.max)}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", tc.n, got, want)
		}
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("empty population: got %+v, want zero", got)
	}
}
