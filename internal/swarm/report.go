package swarm

import (
	"time"

	"repro/internal/latency"
)

// LatencyStats summarizes one latency population in milliseconds.
type LatencyStats struct {
	// Count is the number of samples the percentiles were computed over.
	Count int
	// P50Ms, P95Ms and P99Ms are the percentile latencies in milliseconds.
	P50Ms float64
	P95Ms float64
	P99Ms float64
	// MaxMs is the worst sample in milliseconds.
	MaxMs float64
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
	Name string
	// WallSeconds is the phase's wall-clock length.
	WallSeconds float64

	// Delivered is the netsim datagrams delivered during the phase,
	// LostQueue the datagrams dropped at a full receive queue, and
	// LostNoListener those sent to an address nothing listens on (the
	// old ports of crashed or departed incarnations); the PerSec fields
	// divide by the wall clock.
	Delivered      uint64
	MsgsPerSec     float64
	LostQueue      uint64
	LostNoListener uint64

	// Frames and Datagrams are the reliable layer's logical
	// transmissions (data frames, retransmits and standalone acks) vs
	// the physical datagrams they left in, summed over every member,
	// replica and initiator transport (stopped incarnations included);
	// their ratio is the transport coalescing factor. AcksStandalone vs
	// AcksPiggybacked split acknowledgements by whether they needed their
	// own packet.
	Frames          uint64
	Datagrams       uint64
	AcksStandalone  uint64
	AcksPiggybacked uint64

	// Heartbeats is the explicit heartbeats the detectors sent.
	Heartbeats       uint64
	HeartbeatsPerSec float64

	// DirLookups/DirHits/DirHitRate aggregate the initiators'
	// directory-client cache activity.
	DirLookups uint64
	DirHits    uint64
	DirHitRate float64

	// Downs and Ups count verdict transitions observed across every
	// detector in the swarm during the phase. FalseDowns is the subset
	// of Down verdicts for members the harness never crashed —
	// partition- or load-induced false positives. Partitions counts
	// injected host isolations.
	Downs      uint64
	Ups        uint64
	FalseDowns uint64
	Partitions uint64

	// GossipRounds/GossipPulls/GossipDeltas count anti-entropy activity
	// (rounds run, digest pulls issued, deltas applied) and RumorsSent/
	// RumorsRecv the verdict rumor traffic, summed over every engine in
	// the swarm. All zero when the run has gossip disabled.
	GossipRounds uint64
	GossipPulls  uint64
	GossipDeltas uint64
	RumorsSent   uint64
	RumorsRecv   uint64

	// Ops counts churn operations performed; Joins/Leaves/Crashes/
	// Revives break them down.
	Ops     uint64
	Joins   uint64
	Leaves  uint64
	Crashes uint64
	Revives uint64

	// Sessions and SessionErrs count initiator-driven lookup+echo
	// sessions completed and failed.
	Sessions    uint64
	SessionErrs uint64
}

// Report is the outcome of one swarm run: per-phase throughput and cost
// deltas, verdict and session latency distributions, and end-state
// memory and goroutine footprints.
type Report struct {
	// Phases holds the join and churn phase deltas.
	Phases []PhaseStats

	// DownLatency and UpLatency are the verdict latency distributions:
	// injected crash to a watcher's Down verdict, and restart to a
	// watcher's Up verdict. SessionLatency covers initiator sessions
	// (directory lookup plus echo round trip).
	DownLatency    LatencyStats
	UpLatency      LatencyStats
	SessionLatency LatencyStats

	// LiveMembers and CrashedMembers are the end-of-churn population;
	// Joined/Left/Crashed/Revived are lifetime op totals.
	LiveMembers    int
	CrashedMembers int
	Joined         uint64
	Left           uint64
	Crashed        uint64
	Revived        uint64

	// DirConvergeRounds is the number of post-churn gossip rounds until
	// every shard's replicas agreed on one resolvable view (-1: never
	// within the probe's bound; 0 also when gossip or replication is
	// off).
	DirConvergeRounds int

	// WatchedPeers is the number of (watcher, peer) edges across every
	// live detector at the end of churn.
	WatchedPeers int

	// HeapBytesPerDapplet is the post-join, post-GC heap divided by the
	// swarm population (members + replicas + initiators). Goroutines and
	// GoroutinesPerDapplet are sampled at the same point.
	HeapBytesPerDapplet  float64
	Goroutines           int
	GoroutinesPerDapplet float64

	// EventLog is the ordered churn log of a lockstep run (empty
	// otherwise): one line per op recording only awaited outcomes, so
	// two runs with the same seed over a single-shard network produce
	// identical logs.
	EventLog []string
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
