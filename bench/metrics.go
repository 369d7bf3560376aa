package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints. The end-to-end table
// is gated (bound is the share of the parent's median by which the
// metric may worsen); the per-layer table has no bounds. Both tables
// must match BENCHMARK.json at the repository root — bench_test.go
// holds them together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the stack sees. Every workload reports
// every one of them; "op" is the workload's unit of work (see
// workload.op).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"wire_bytes_per_op", "B", "lower", 0.03},
}

// perLayer is the E15 cost table: where one op's time, allocations and
// bytes go, layer by layer. A metric that does not apply to a workload
// (relay.* on a point-to-point stream) reads 0 there.
var perLayer = []metricDef{
	// Delivery-path segments from the stamps of sampled messages (p50).
	{"core.outbox_send_ns", "ns", "lower", 0},
	{"wire.encode_ns", "ns", "lower", 0},
	{"transport.send_ns", "ns", "lower", 0},
	{"transport.stage_wait_ns", "ns", "lower", 0},
	{"netsim.write_ns", "ns", "lower", 0},
	{"transport.udp_write_ns", "ns", "lower", 0},
	{"netsim.queue_ns", "ns", "lower", 0},
	{"transport.udp_transit_ns", "ns", "lower", 0},
	{"transport.rx_ns", "ns", "lower", 0},
	{"core.deliver_ns", "ns", "lower", 0},
	{"core.deliver_ptail_us", "us", "lower", 0},
	{"core.inbox_depth_max", "count", "lower", 0},
	// Codec probe on the workload's own envelope.
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.decode_allocs", "count", "lower", 0},
	{"wire.envelope_overhead_bytes", "B", "lower", 0},
	{"wire.json_kinds", "count", "lower", 0},
	// Reliable-layer and socket counters per op.
	{"transport.datagrams_per_msg", "count", "lower", 0},
	{"transport.acks_per_msg", "count", "lower", 0},
	{"transport.retx_per_msg", "count", "lower", 0},
	{"transport.dups_per_msg", "count", "lower", 0},
	{"transport.failures", "count", "lower", 0},
	{"transport.queue_depth_max", "count", "lower", 0},
	{"transport.udp_syscalls_per_msg", "count", "lower", 0},
	// Simulated-network counters.
	{"netsim.lost_queue", "count", "lower", 0},
	{"netsim.lost_link_per_msg", "count", "lower", 0},
	{"netsim.dup_per_msg", "count", "lower", 0},
	{"netsim.reordered_per_msg", "count", "lower", 0},
	// Request/reply.
	{"svc.req_leg_ns", "ns", "lower", 0},
	{"svc.rep_leg_ns", "ns", "lower", 0},
	{"svc.call_ptail_us", "us", "lower", 0},
	{"svc.allocs_per_call", "count", "lower", 0},
	// Tree multicast.
	{"relay.sender_ns", "ns", "lower", 0},
	{"relay.forward_ns", "ns", "lower", 0},
	{"relay.deliver_ns", "ns", "lower", 0},
	{"relay.depth1_p50_us", "us", "lower", 0},
	{"relay.depth2_p50_us", "us", "lower", 0},
	{"relay.depth3_p50_us", "us", "lower", 0},
	{"relay.forwarded_per_bcast", "count", "lower", 0},
	{"relay.dup_dropped", "count", "lower", 0},
	{"relay.root_bytes_per_bcast", "B", "lower", 0},
	{"relay.bcast_ptail_us", "us", "lower", 0},
	// Session control plane.
	{"session.setup_p50_ms", "ms", "lower", 0},
	{"session.terminate_p50_ms", "ms", "lower", 0},
	{"session.setup_wire_bytes", "B", "lower", 0},
	{"session.setup_datagrams", "count", "lower", 0},
	{"session.setup_allocs", "count", "lower", 0},
	{"session.first_bcast_us", "us", "lower", 0},
	// Process-wide cost.
	{"proc.cpu_us_per_op", "us", "lower", 0},
	{"proc.heap_bytes_per_op", "B", "lower", 0},
	{"proc.rss_peak_mb", "MB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.goroutines", "count", "lower", 0},
	// What the wrappers themselves cost.
	{"trace.overhead_pct", "%", "lower", 0},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// samples is a set of durations in ns, sorted on first query. With a
// limit it stays that small however long the loop feeding it runs: when
// full it drops every other sample and from then on takes half as many,
// so what it keeps stays evenly spread over the run. The loops' own
// samples are limited because the worlds under test are small: a few MB
// of harness data would be most of the live heap, and the collector
// would run less often the longer or faster a round is.
type samples struct {
	ns     []int64
	sorted bool
	limit  int // 0 = unlimited
	stride int // one value in this many is kept (0 = all)
	skip   int
}

// sampleLimit bounds each loop's latency samples (256 KiB).
const sampleLimit = 1 << 15

func limitedSamples() samples {
	return samples{ns: make([]int64, 0, sampleLimit), limit: sampleLimit, stride: 1}
}

func (s *samples) add(ns int64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	if s.limit > 0 && len(s.ns) == s.limit {
		for i := 0; i < s.limit/2; i++ {
			s.ns[i] = s.ns[2*i]
		}
		s.ns = s.ns[:s.limit/2]
		s.stride *= 2
	}
	s.ns = append(s.ns, ns)
	if s.stride > 1 {
		s.skip = s.stride - 1
	}
	s.sorted = false
}

func (s *samples) sort() {
	if !s.sorted {
		sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
		s.sorted = true
	}
}

func (s *samples) n() int {
	if s == nil {
		return 0
	}
	return len(s.ns)
}

func (s *samples) p50() float64 {
	if s.n() == 0 {
		return 0
	}
	s.sort()
	return float64(s.ns[len(s.ns)/2])
}

func (s *samples) mean() float64 {
	if len(s.ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.ns {
		sum += float64(v)
	}
	return sum / float64(len(s.ns))
}

// ptail returns the highest percentile that still has ten samples
// beyond it, and which percentile that is; with too few samples it
// falls back to the median.
func (s *samples) ptail() (ns float64, pct float64) {
	n := len(s.ns)
	if n < 21 {
		return s.p50(), 50
	}
	s.sort()
	i := n - 11
	return float64(s.ns[i]), 100 * float64(i+1) / float64(n)
}
