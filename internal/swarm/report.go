package swarm

import (
	"time"

	"repro/internal/latency"
)

// LatencyStats summarizes one latency population in milliseconds.
type LatencyStats struct {
	// Count is the number of samples the percentiles were computed over.
	Count int `json:"count"`
	// P50Ms, P95Ms and P99Ms are the percentile latencies in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// MaxMs is the worst sample in milliseconds.
	MaxMs float64 `json:"max_ms"`
}

// summarize computes percentile stats over a sample set; it sorts the
// slice in place.
func summarize(samples []time.Duration) LatencyStats {
	s := latency.Summarize(samples)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencyStats{Count: s.Count, P50Ms: ms(s.P50), P95Ms: ms(s.P95), P99Ms: ms(s.P99), MaxMs: ms(s.Max)}
}

// PhaseStats is the activity delta over one harness phase (join, churn),
// normalized by the phase's wall-clock length.
type PhaseStats struct {
	// Name is the phase label: "join" or "churn".
	Name string `json:"name"`
	// WallSeconds is the phase's wall-clock length.
	WallSeconds float64 `json:"wall_seconds"`

	// Delivered and BytesSent are the netsim datagrams delivered and
	// payload bytes sent during the phase; the PerSec fields divide by
	// the wall clock.
	Delivered   uint64  `json:"delivered"`
	BytesSent   uint64  `json:"bytes_sent"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	BytesPerSec float64 `json:"bytes_per_sec"`
	LostQueue   uint64  `json:"lost_queue"`

	// Frames and Datagrams are the reliable layer's logical
	// transmissions (data frames, retransmits and standalone acks) vs
	// the physical datagrams they left in, summed over every member,
	// replica and initiator transport (stopped incarnations included);
	// their ratio is the transport coalescing factor. AcksStandalone vs
	// AcksPiggybacked split acknowledgements by whether they needed their
	// own packet.
	Frames          uint64 `json:"frames"`
	Datagrams       uint64 `json:"datagrams"`
	AcksStandalone  uint64 `json:"acks_standalone"`
	AcksPiggybacked uint64 `json:"acks_piggybacked"`

	// Heartbeats and Probes are the detector-layer counters: explicit
	// heartbeats sent and Down-peer probes.
	Heartbeats       uint64  `json:"heartbeats"`
	Probes           uint64  `json:"probes"`
	HeartbeatsPerSec float64 `json:"heartbeats_per_sec"`

	// DirLookups/DirHits/DirHitRate/DirFailovers/DirEvictions aggregate
	// the initiators' directory-client cache activity.
	DirLookups   uint64  `json:"dir_lookups"`
	DirHits      uint64  `json:"dir_hits"`
	DirHitRate   float64 `json:"dir_hit_rate"`
	DirFailovers uint64  `json:"dir_failovers"`
	DirEvictions uint64  `json:"dir_evictions"`

	// Downs and Ups count verdict transitions observed across every
	// detector in the swarm during the phase. FalseDowns is the subset
	// of Down verdicts for members the harness never crashed —
	// partition- or load-induced false positives. Partitions counts
	// injected host isolations.
	Downs      uint64 `json:"downs"`
	Ups        uint64 `json:"ups"`
	FalseDowns uint64 `json:"false_downs"`
	Partitions uint64 `json:"partitions"`

	// GossipRounds/GossipPulls/GossipDeltas count anti-entropy activity
	// (rounds run, digest pulls issued, deltas applied) and RumorsSent/
	// RumorsRecv the verdict rumor traffic, summed over every engine in
	// the swarm. All zero when the run has gossip disabled.
	GossipRounds uint64 `json:"gossip_rounds"`
	GossipPulls  uint64 `json:"gossip_pulls"`
	GossipDeltas uint64 `json:"gossip_deltas"`
	RumorsSent   uint64 `json:"rumors_sent"`
	RumorsRecv   uint64 `json:"rumors_recv"`

	// Ops counts churn operations performed; Joins/Leaves/Crashes/
	// Revives break them down.
	Ops     uint64 `json:"ops"`
	Joins   uint64 `json:"joins"`
	Leaves  uint64 `json:"leaves"`
	Crashes uint64 `json:"crashes"`
	Revives uint64 `json:"revives"`

	// Sessions and SessionErrs count initiator-driven lookup+echo
	// sessions completed and failed.
	Sessions    uint64 `json:"sessions"`
	SessionErrs uint64 `json:"session_errs"`
}

// Report is the outcome of one swarm run: per-phase throughput and cost
// deltas, verdict and session latency distributions, and end-state
// memory and goroutine footprints.
type Report struct {
	// N, Hosts, Seed and Lockstep echo the run's configuration.
	N        int   `json:"n"`
	Hosts    int   `json:"hosts"`
	Seed     int64 `json:"seed"`
	Lockstep bool  `json:"lockstep"`

	// Phases holds the join and churn phase deltas.
	Phases []PhaseStats `json:"phases"`

	// DownLatency and UpLatency are the verdict latency distributions:
	// injected crash to a watcher's Down verdict, and restart to a
	// watcher's Up verdict. SessionLatency covers initiator sessions
	// (directory lookup plus echo round trip).
	DownLatency    LatencyStats `json:"down_latency"`
	UpLatency      LatencyStats `json:"up_latency"`
	SessionLatency LatencyStats `json:"session_latency"`

	// LiveMembers and CrashedMembers are the end-of-churn population;
	// Joined/Left/Crashed/Revived are lifetime op totals.
	LiveMembers    int    `json:"live_members"`
	CrashedMembers int    `json:"crashed_members"`
	Joined         uint64 `json:"joined"`
	Left           uint64 `json:"left"`
	Crashed        uint64 `json:"crashed"`
	Revived        uint64 `json:"revived"`

	// FalseDowns and Partitions are the lifetime totals of the per-phase
	// columns of the same name. DirConvergeRounds is the number of
	// post-churn gossip rounds until every shard's replicas agreed on
	// one resolvable view (-1: never within the probe's bound; 0 also
	// when gossip or replication is off).
	FalseDowns        uint64 `json:"false_downs"`
	Partitions        uint64 `json:"partitions"`
	DirConvergeRounds int    `json:"dir_converge_rounds"`

	// WatchedPeers is the number of (watcher, peer) edges across every
	// live detector at the end of churn.
	WatchedPeers int `json:"watched_peers"`

	// HeapAllocBytes is the post-join, post-GC heap; HeapBytesPerDapplet
	// divides it by the swarm population (members + replicas +
	// initiators). Goroutines and GoroutinesPerDapplet are sampled at
	// the same point.
	HeapAllocBytes       uint64  `json:"heap_alloc_bytes"`
	HeapBytesPerDapplet  float64 `json:"heap_bytes_per_dapplet"`
	Goroutines           int     `json:"goroutines"`
	GoroutinesPerDapplet float64 `json:"goroutines_per_dapplet"`

	// EventLog is the ordered churn log of a lockstep run (empty
	// otherwise): one line per op recording only awaited outcomes, so
	// two runs with the same seed over a single-shard network produce
	// identical logs.
	EventLog []string `json:"event_log,omitempty"`
}

// Phase returns the named phase's stats, or a zero PhaseStats.
func (r *Report) Phase(name string) PhaseStats {
	for _, p := range r.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseStats{}
}
