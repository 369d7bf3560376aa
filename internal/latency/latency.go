// Package latency holds the one percentile rule every report in the
// repository uses, so columns printed side by side (swarm verdict
// latencies, broadcast delivery latencies, experiment cells) are
// computed the same way.
package latency

import (
	"sort"
	"time"
)

// Summary is the percentile summary of one latency population.
type Summary struct {
	// Count is the number of samples summarized.
	Count int
	// P50, P95 and P99 are the percentile samples; Max is the worst one.
	P50, P95, P99, Max time.Duration
}

// Summarize sorts samples in place and picks, for percentile p, the
// sample at index (n-1)*p/100 in integer arithmetic: the lower of the two
// neighbours when the rank falls between samples, the maximum only at
// p=100. An empty population summarizes to the zero Summary.
func Summarize(samples []time.Duration) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(pct int) time.Duration { return samples[(n-1)*pct/100] }
	return Summary{Count: n, P50: at(50), P95: at(95), P99: at(99), Max: samples[n-1]}
}
