// Package experiment holds the only definition of every experiment in
// DESIGN.md's matrix (F1-F3, T1, E1-E14) as a registry of cells. The two
// harnesses — `go test -bench BenchmarkExperiment` and `cmd/wwbench` —
// are printers over it: they pick experiments, hand each cell a timer and
// an op count, and print the metrics it returns.
//
// A cell builds its world, calls t.ResetTimer, performs ops operations
// and returns what it counted. Worlds come from internal/world, directly
// or through scenario.BuildCalendar, scenario.RunBroadcast and
// swarm.Run; this package only says which worlds an experiment runs and
// what it reads off them. To add a cell, append to its experiment's Cells
// function; to add an experiment, append to All and add its row to
// DESIGN.md's matrix (TestRegistryMatchesDesignDoc holds the two equal).
package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/world"
)

// ErrSkip is what a cell returns when its environment cannot run it (the
// one case today: loopback UDP sockets unavailable). Printers show the
// cell as skipped; any other error fails the run.
var ErrSkip = errors.New("experiment: skipped")

// Scale sizes every cell whose cost grows with a population or a
// duration (E11-E14); the other cells run the same at every scale.
type Scale int

const (
	// Smoke is the CI size: every experiment end to end in seconds. It
	// is the zero value, so a bare Params{} is safe to run anywhere.
	Smoke Scale = iota
	// Std is the size DESIGN.md's tables quote.
	Std
	// Full adds the 100 000-dapplet swarm and the 10 000-member tree:
	// several GB and several minutes.
	Full
)

var scaleNames = [...]string{"smoke", "std", "full"}

// ParseScale maps a flag spelling (smoke, std, full) to its Scale.
func ParseScale(name string) (Scale, error) {
	for i, n := range scaleNames {
		if n == name {
			return Scale(i), nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown scale %q (want %s)", name, strings.Join(scaleNames[:], ", "))
}

// byScale picks the value for s.
func byScale[T any](s Scale, smoke, std, full T) T {
	return [...]T{smoke, std, full}[s]
}

// Params is everything a harness can vary about the matrix.
type Params struct {
	// Seed overrides every experiment's network and workload seed; zero
	// keeps the per-experiment defaults, so published tables reproduce.
	Seed int64
	// Shards overrides every network's delivery shard count; zero keeps
	// the netsim default (GOMAXPROCS), 1 makes single-driver cells
	// bit-reproducible per seed.
	Shards int
	// Scale sizes the population-bound cells.
	Scale Scale
}

// seed resolves an experiment's default seed against the override.
func (p Params) seed(def int64) int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return def
}

// Metric is one named reading of a cell. The name carries the unit the
// way `go test -bench` columns do ("vlat-ms", "retx/msg").
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// m builds a Metric from any numeric reading.
func m[T int | int64 | uint64 | float64](name string, v T) Metric {
	return Metric{Name: name, Value: float64(v)}
}

// ratio is num/den, and 0 when nothing was counted (a one-op run may
// send no standalone ack at all).
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Timer is the part of *testing.B a cell needs: it brackets the measured
// region. The timer is running when Run is called.
type Timer interface {
	ResetTimer()
	StartTimer()
	StopTimer()
}

// Cell is one row of an experiment's table.
type Cell struct {
	// Name identifies the cell within its experiment ("loss=5%").
	Name string
	// Ops is the op count wwbench passes to Run; `go test -bench`
	// passes b.N instead.
	Ops int
	// Run builds the cell's world, performs ops operations inside the
	// timed region and returns its readings. The per-op wall time is the
	// harness's to report (ns/op), not the cell's.
	Run runFunc
}

// Experiment is one row of DESIGN.md's matrix.
type Experiment struct {
	// ID is the matrix id ("F1", "E12").
	ID string
	// Desc is the one-line description printed above the table.
	Desc string
	// Cells lists the experiment's cells at the given parameters.
	Cells func(Params) []Cell
}

// All returns the registry in matrix order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Figure 1: three-site calendar session (9 members, 3 secretaries); hierarchy ablation", f1Cells},
		{"F2", "Figure 2: initiator-driven session setup vs participants", f2Cells},
		{"F3", "Figure 3: outbox fan-out / fan-in throughput", f3Cells},
		{"T1", "Traditional sequential negotiation vs session scheduler; negotiation-window ablation", t1Cells},
		{"E1", "Ordered-delivery layer under loss", e1Cells},
		{"E2", "Token managers: grants and deadlock detection", e2Cells},
		{"E3", "Clocks: snapshot-criterion violations, stamping cost", e3Cells},
		{"E4", "Checkpointing: marker vs clock snapshots", e4Cells},
		{"E5", "RPC over inboxes: sync vs async", e5Cells},
		{"E6", "Distributed synchronization constructs", e6Cells},
		{"E7", "Session interference control", e7Cells},
		{"E9", "Failure detection latency and checkpoint-restore recovery", e9Cells},
		{"E10", "Replicated directory service: lookup scaling, caching, replica failover", e10Cells},
		{"E11", "Swarm-scale churn harness: join/leave/crash churn, detector cost, footprint", e11Cells},
		{"E12", "Batched I/O: frame coalescing, ack piggybacking, mmsg syscall batching", e12Cells},
		{"E13", "Gossip substrate: verdict-quorum false-positive A/B, directory anti-entropy convergence", e13Cells},
		{"E14", "Relay-tree multicast: flat vs tree broadcast fan-out", e14Cells},
	}
}

// Result is one measured cell, and the one report shape: wwbench's -out
// file is a JSON array of these.
type Result struct {
	Exp  string `json:"exp"`
	Cell string `json:"cell"`
	Ops  int    `json:"ops"`
	// ElapsedNs is the wall time of the cell's timed region.
	ElapsedNs int64 `json:"elapsed_ns"`
	// Skipped marks a cell that returned ErrSkip; it has no metrics.
	Skipped bool `json:"skipped,omitempty"`
	// Metrics is "ns/op" (ElapsedNs/Ops) followed by the cell's readings.
	Metrics []Metric `json:"metrics"`
}

// stopwatch is the Timer for harnesses that are not a *testing.B. It is
// running while start is set.
type stopwatch struct {
	start   time.Time
	elapsed time.Duration
}

func (s *stopwatch) ResetTimer() {
	s.elapsed = 0
	if !s.start.IsZero() {
		s.start = time.Now()
	}
}

func (s *stopwatch) StartTimer() {
	if s.start.IsZero() {
		s.start = time.Now()
	}
}

func (s *stopwatch) StopTimer() {
	if !s.start.IsZero() {
		s.elapsed += time.Since(s.start)
		s.start = time.Time{}
	}
}

// Measure runs one cell at its own op count under a stopwatch. A cell
// that returns ErrSkip yields a Skipped result and a nil error.
func Measure(ctx context.Context, expID string, c Cell) (Result, error) {
	res := Result{Exp: expID, Cell: c.Name, Ops: c.Ops}
	sw := stopwatch{start: time.Now()}
	metrics, err := c.Run(ctx, &sw, c.Ops)
	sw.StopTimer()
	if errors.Is(err, ErrSkip) {
		res.Skipped = true
		return res, nil
	}
	if err != nil {
		return res, fmt.Errorf("%s/%s: %w", expID, c.Name, err)
	}
	res.ElapsedNs = sw.elapsed.Nanoseconds()
	res.Metrics = append([]Metric{m("ns/op", float64(res.ElapsedNs)/float64(c.Ops))}, metrics...)
	return res, nil
}

// runFunc is the signature of Cell.Run.
type runFunc = func(ctx context.Context, t Timer, ops int) ([]Metric, error)

// cellConfig is the reliable layer of every dapplet a cell's world
// starts: a short RTO keeps retransmission timers out of fault-free
// cells, and the window and receive buffer keep them from throttling.
var cellConfig = transport.Config{RTO: 30 * time.Millisecond, Window: 256, RecvBuf: 4096}

// inWorld gives run a world of its own — seeded and sharded by the
// harness overrides, extra options after them — and closes it when run
// returns.
func inWorld(p Params, defaultSeed int64, run func(ctx context.Context, t Timer, ops int, w *world.World) ([]Metric, error), extra ...netsim.Option) runFunc {
	return func(ctx context.Context, t Timer, ops int) ([]Metric, error) {
		opts := append([]netsim.Option{netsim.WithSeed(p.seed(defaultSeed)), netsim.WithShards(p.Shards)}, extra...)
		w := world.New(cellConfig, opts...)
		defer w.Close()
		return run(ctx, t, ops, w)
	}
}

// dappletsN starts n free-standing dapplets "<prefix>0".."<prefix>n-1",
// each on its own host "<prefix>h<i>".
func dappletsN(w *world.World, prefix string, n int) []*core.Dapplet {
	ds := make([]*core.Dapplet, n)
	for i := range ds {
		ds[i] = w.Dapplet(fmt.Sprintf("%sh%d", prefix, i), "bench", fmt.Sprintf("%s%d", prefix, i))
	}
	return ds
}
