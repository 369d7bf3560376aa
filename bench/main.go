// Command bench is the message-path benchmark: closed-loop workloads
// against the stack as a user configures it, every delivery checked,
// every metric printed by name with its unit. See README.md.
//
//	go run ./bench -seed 1                          one full set, all workloads
//	go run ./bench -seed 1 -trace 1                 the per-layer cost table
//	go run ./bench -workload p2p_stream -seconds 10 one workload
//	go run ./bench -compare old.json new.json       regression table
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

var workloads = []*workload{
	{
		name:    "p2p_stream",
		why:     "64 B stream over a netsim pair: per-message CPU of wire, core, transport and netsim is all there is, at the size where per-packet cost dominates",
		op:      "message delivered in order",
		latency: "stamp before Outbox.Send to Inbox.ReceiveEnvelope returning, 64 messages in flight",
		tail:    "core.deliver_ptail_us",
		warm:    20000, payload: 64, members: 2, every: 16,
		build: buildSimStream(false),
	},
	{
		name:    "udp_stream",
		why:     "1 KiB stream over two real loopback sockets: syscalls and kernel copies dominate and netsim does nothing, the only place sendmmsg, GSO or borrowed buffers can show",
		op:      "message delivered in order",
		latency: "stamp before Outbox.Send to Inbox.ReceiveEnvelope returning, 64 messages in flight",
		tail:    "core.deliver_ptail_us",
		warm:    10000, payload: 1024, members: 2, every: 16,
		build: buildUDPStream,
	},
	{
		name:    "svc_pingpong",
		why:     "one svc.Caller.Call in flight against an echo handler: idle-channel latency and four goroutine wake-ups per call, the workload every throughput optimisation must leave alone",
		op:      "call answered with the request's bytes",
		latency: "Caller.Call round trip",
		tail:    "svc.call_ptail_us",
		allocs:  "svc.allocs_per_call",
		warm:    5000, payload: 64, members: 2, every: 16,
		build: buildPingpong,
	},
	{
		name:    "lossy_stream",
		why:     "256 B stream over a real-time 2 ms link with 2% loss, 2% reorder, 1% dup: the retransmit timer, reorder buffer and dedup set goodput, not CPU, so a CPU optimisation must show nothing here",
		op:      "message delivered in order",
		latency: "stamp before Outbox.Send to Inbox.ReceiveEnvelope returning, 64 messages in flight",
		tail:    "core.deliver_ptail_us",
		warm:    200, payload: 256, members: 2, every: 1,
		build: buildSimStream(true),
	},
	{
		name:    "session_bcast",
		why:     "256 B broadcasts down a 64-participant relay tree (fanout 4, depth 3), one in flight: relay and session do the work and a broadcast completes when the slowest of 63 parallel parts does",
		op:      "listener delivery, exactly once and in order (63 per broadcast)",
		latency: "stamp before Outbox.Send to the last of 63 listeners receiving",
		tail:    "relay.bcast_ptail_us",
		warm:    200, payload: 256, members: groupSize + 1, every: 16,
		build: buildGroup(false),
	},
	{
		name:    "session_setup",
		why:     "Initiate, first broadcast, Terminate of a 64-participant tree session in a loop: roster shipping and the session kinds still on the JSON codec, the control-plane cost no stream shows",
		op:      "session cycle (initiate, one broadcast to 63 listeners, terminate)",
		latency: "Initiator.Initiate",
		warm:    5, payload: 256, members: groupSize + 1, every: 1,
		build: buildGroup(true),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stat is one metric's value over a set: the median of its rounds.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// workloadReport is everything one set measured on one workload.
type workloadReport struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	Op        string          `json:"op"`
	Latency   string          `json:"op_latency"`
	Attempted uint64          `json:"attempted"`
	Failed    uint64          `json:"failed"`
	FailRatio float64         `json:"fail_ratio"`
	Summary   map[string]stat `json:"summary"`
	Rounds    []*roundResult  `json:"rounds"`
	Notes     []string        `json:"notes,omitempty"`
	TraceFile string          `json:"trace_file,omitempty"`

	// The first traced round's segment table — the round whose spans
	// went to TraceFile — and the envelope it captured for the codec probe.
	table            []segRow
	sampled, untiled int
	probe            []byte
}

// benchFile is the committed trajectory point (results/BENCH_<pr>.json)
// and the input of -compare.
type benchFile struct {
	Schema     string            `json:"schema"`
	Commit     string            `json:"commit"`
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	Host       string            `json:"host"`
	Platform   string            `json:"platform"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds_per_workload"`
	Rounds     int               `json:"rounds"`
	Trace      bool              `json:"trace"`
	EndToEnd   []metricDef       `json:"end_to_end"`
	PerLayer   []metricDef       `json:"per_layer"`
	Workloads  []*workloadReport `json:"workloads"`
	Claim      *string           `json:"claim"`
}

type options struct {
	workloads []*workload
	seed      int64
	seconds   float64
	rounds    int
	trace     bool
	traceDir  string
	commit    string
}

// roundSeed derives round r's inputs from the set's seed, so rounds see
// different loss patterns and two sets with one seed see the same ones.
func roundSeed(seed int64, r int) int64 { return seed*1009 + int64(r) }

// runSet runs the rounds of every selected workload, interleaved round
// robin (A B C A B C ...) because the machine's noise drifts on a
// timescale longer than one round. With tracing every round runs twice,
// untraced then traced, so the pair differs only by the wrappers.
func runSet(ctx context.Context, opt options, log io.Writer) (*benchFile, error) {
	host, _ := os.Hostname()
	f := &benchFile{
		Schema: "wwds-bench/1", Commit: opt.commit, Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Host: host,
		Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Seed:     opt.seed, Seconds: opt.seconds, Rounds: opt.rounds, Trace: opt.trace,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	share := opt.seconds / float64(opt.rounds)
	if opt.trace {
		share /= 2
	}
	dur := time.Duration(share * float64(time.Second))
	for _, wl := range opt.workloads {
		f.Workloads = append(f.Workloads, &workloadReport{Name: wl.name, Why: wl.why, Op: wl.op, Latency: wl.latency})
	}
	modes := []bool{false} // traced?
	if opt.trace {
		modes = append(modes, true)
	}
rounds:
	for r := 0; r < opt.rounds; r++ {
		for i, wl := range opt.workloads {
			for _, traced := range modes {
				res, err := runRound(ctx, wl, roundSeed(opt.seed, r), dur, traced)
				if res != nil {
					f.Workloads[i].Rounds = append(f.Workloads[i].Rounds, res)
				}
				if err == nil && res.segs != nil {
					err = f.Workloads[i].keepTrace(res, opt)
				}
				if err != nil {
					return f, err
				}
				fmt.Fprintf(log, "round %d %-14s traced=%-5v ops=%-9d %.0f ops/s failed=%d\n",
					r+1, wl.name, traced, res.Ops, res.Values["ops_per_s"], res.Failed)
				if res.Failed > 0 {
					break rounds // a violated gate ends the set; what ran is still reported
				}
			}
		}
	}
	for i, wl := range opt.workloads {
		if len(f.Workloads[i].Rounds) == 0 {
			continue // the set ended on a violation before this workload ran
		}
		if err := summarise(f.Workloads[i], wl); err != nil {
			return f, err
		}
	}
	return f, nil
}

// keepTrace writes the first traced round's spans out and keeps its
// segment table; the samples and spans of every traced round are then
// dropped, so that the harness's heap — and with it how often the
// collector runs under the workload — stays what it is untraced.
func (rep *workloadReport) keepTrace(res *roundResult, opt options) error {
	segs := res.segs
	res.segs = nil
	if rep.table != nil {
		return nil
	}
	rep.table, rep.sampled, rep.untiled, rep.probe = segs.rows(), segs.messages, segs.untiled, res.probe
	var err error
	if rep.TraceFile, err = writeTrace(opt.traceDir, rep.Name, opt.seed, segs); err != nil {
		return fmt.Errorf("%s: write trace: %w", rep.Name, err)
	}
	return nil
}

// summarise reduces a workload's rounds to one stat per metric: the
// median over the untraced rounds that measured it, or over the traced
// rounds when only the wrappers can measure it.
func summarise(rep *workloadReport, wl *workload) error {
	rep.Summary = make(map[string]stat)
	for _, r := range rep.Rounds {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		for _, n := range r.Notes {
			if len(rep.Notes) < 8 {
				rep.Notes = append(rep.Notes, n)
			}
		}
	}
	if rep.Attempted > 0 {
		rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range defs {
			var plain, traced []float64
			for _, r := range rep.Rounds {
				if v, ok := r.Values[def.Name]; ok {
					if r.Traced {
						traced = append(traced, v)
					} else {
						plain = append(plain, v)
					}
				}
			}
			if len(plain) == 0 {
				plain = traced
			}
			if len(plain) == 0 {
				continue
			}
			lo, hi := minMax(plain)
			rep.Summary[def.Name] = stat{Median: median(plain), Min: lo, Max: hi, N: len(plain), Unit: def.Unit}
		}
	}
	if rep.table == nil {
		return nil
	}
	one := func(name, unit string, v float64) {
		rep.Summary[name] = stat{Median: v, Min: v, Max: v, N: 1, Unit: unit}
	}
	var plain, traced []float64
	for _, r := range rep.Rounds {
		if r.Traced {
			traced = append(traced, r.Values["ops_per_s"])
		} else {
			plain = append(plain, r.Values["ops_per_s"])
		}
	}
	one("trace.overhead_pct", "%", 100*(1-median(traced)/median(plain)))
	one("wire.json_kinds", "count", jsonKinds())
	ns, allocs, overhead, err := probeCodec(rep.probe, wl.payload, 200000)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	one("wire.decode_ns", "ns", ns)
	one("wire.decode_allocs", "count", allocs)
	one("wire.envelope_overhead_bytes", "B", overhead)
	return nil
}

// printReport prints every metric the set measured, by name, with its
// unit, min, max and sample count.
func printReport(out io.Writer, rep *workloadReport, trace bool) {
	fmt.Fprintf(out, "\nworkload %s: %s\n", rep.Name, rep.Why)
	fmt.Fprintf(out, "  op = %s; op_p50_us times %s\n", rep.Op, rep.Latency)
	fmt.Fprintf(out, "  attempted=%d failed=%d fail_ratio=%g\n", rep.Attempted, rep.Failed, rep.FailRatio)
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "  ! %s\n", n)
	}
	fmt.Fprintf(out, "  %-32s %-6s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "max", "n")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, def := range defs {
			if s, ok := rep.Summary[def.Name]; ok {
				fmt.Fprintf(out, "  %-32s %-6s %14.4f %14.4f %14.4f %3d\n", def.Name, s.Unit, s.Median, s.Min, s.Max, s.N)
			} else if trace {
				// Not exercised by this workload; its result line reads 0.
				fmt.Fprintf(out, "  %-32s %-6s %14s %14s %14s %3d\n", def.Name, def.Unit, "-", "-", "-", 0)
			}
		}
	}
	if r := rep.Rounds[0]; r.TailPct > 0 {
		fmt.Fprintf(out, "  the ptail metric is p%.3f of %d latency samples a round\n", r.TailPct, r.LatencyN)
	}
	if rep.table == nil {
		return
	}
	fmt.Fprintf(out, "  delivery-path segments, first traced round (%d sampled messages, %d paths untiled) -> %s\n",
		rep.sampled, rep.untiled, rep.TraceFile)
	fmt.Fprintf(out, "  %-32s %12s %12s %8s\n", "segment", "mean_ns", "p50_ns", "n")
	for _, row := range rep.table {
		fmt.Fprintf(out, "  %-32s %12.0f %12.0f %8d\n", row.name, row.mean, row.p50, row.n)
	}
}

// resultLine is the driver contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line reports every end-to-end metric of an untraced set, or every
// per-layer metric of a traced one; a layer metric the workload does not
// exercise reads 0.
func (rep *workloadReport) line(trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	l := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricValue)}
	for _, def := range defs {
		l.Metrics[def.Name] = metricValue{Value: rep.Summary[def.Name].Median, Unit: def.Unit}
	}
	return l
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed of every generated input: netsim fault draws and payload bytes")
		seconds  = fs.Float64("seconds", 20, "timed seconds per workload, split over the rounds")
		rounds   = fs.Int("rounds", 5, "rounds per workload, each on a fresh world; a metric's value is the median of its rounds")
		trace    = fs.Int("trace", 0, "1 installs the wrappers, runs every round untraced then traced, and reports the per-layer metrics")
		out      = fs.String("out", "", "write the full per-round output as JSON (the BENCH file -compare reads)")
		traceDir = fs.String("tracedir", "bench/out", "directory for trace_<workload>.json")
		commit   = fs.String("commit", vcsRevision(), "commit recorded in the -out file")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	opt := options{seed: *seed, seconds: *seconds, rounds: *rounds, trace: *trace != 0, traceDir: *traceDir, commit: *commit}
	if fs.NArg() != 0 || opt.rounds < 1 || opt.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if *name == "all" {
		opt.workloads = workloads
	} else if wl := workloadByName(*name); wl != nil {
		opt.workloads = []*workload{wl}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	f, err := runSet(ctx, opt, stderr)
	for _, rep := range f.Workloads {
		if rep.Summary != nil {
			printReport(stdout, rep, opt.trace)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(f, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The last line: one JSON object for a single workload (the driver
	// contract), one keyed by workload for a full set.
	var last any
	var failed []string
	lines := make(map[string]resultLine)
	for _, rep := range f.Workloads {
		if rep.Summary == nil {
			continue
		}
		lines[rep.Name] = rep.line(opt.trace)
		last = lines[rep.Name]
		if rep.Failed > 0 {
			failed = append(failed, rep.Name)
		}
	}
	if len(lines) > 1 {
		last = lines
	}
	data, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\n%s\n", data)
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "bench: correctness violations on %s\n", strings.Join(failed, ", "))
		return 1
	}
	return 0
}

func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
