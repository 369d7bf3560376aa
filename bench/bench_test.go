package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json, the contract the driver
// holds this package to.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode keeps the two copies of the metric and
// workload tables — BENCHMARK.json for the driver, the Go tables for
// the program — from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s: bad or repeated metric name %q", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or repeated workload name %q", w.name)
		}
		seen[w.name] = true
		for _, alias := range []string{w.tail, w.allocs} {
			if alias != "" && !seen[alias] {
				t.Errorf("workload %s reports %q, which the per-layer table does not name", w.name, alias)
			}
		}
	}
}

// smoke runs every workload for a moment and returns what it printed
// and its last line.
func smoke(t *testing.T, trace string) (string, map[string]resultLine) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(context.Background(), []string{
		"-seconds", "0.2", "-rounds", "1", "-seed", "7", "-trace", trace, "-tracedir", t.TempDir(),
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("bench exited %d\n%s\n%s", code, errw.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return out.String(), last
}

// TestSmoke is the tier-1 gate: every workload delivers everything it
// sends, and every end-to-end metric BENCHMARK.json names is printed,
// non-zero, on every workload.
func TestSmoke(t *testing.T) {
	printed, last := smoke(t, "0")
	for _, w := range workloads {
		l, ok := last[w.name]
		if !ok {
			t.Fatalf("no result for workload %s", w.name)
		}
		if !l.Correct || l.Failed != 0 || l.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, l.Correct, l.Attempted, l.Failed)
		}
		if len(l.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics in the result, want the %d end-to-end ones", w.name, len(l.Metrics), len(endToEnd))
		}
		for _, def := range endToEnd {
			if m := l.Metrics[def.Name]; m.Value <= 0 || m.Unit != def.Unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %s", w.name, def.Name, m.Value, m.Unit, def.Unit)
			}
		}
	}
	for _, def := range endToEnd {
		if !strings.Contains(printed, "  "+def.Name+" ") {
			t.Errorf("metric %s is not printed", def.Name)
		}
	}
	if !strings.Contains(printed, "fail_ratio=0") {
		t.Errorf("fail_ratio is not printed")
	}
}

// TestSmokeTrace runs the traced rounds: every sampled message's
// segments must tile its path (an untiled path is a failure), the trace
// files must appear, and every per-layer metric must be in the result.
func TestSmokeTrace(t *testing.T) {
	printed, last := smoke(t, "1")
	for _, w := range workloads {
		l := last[w.name]
		if !l.Correct || l.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.name, l.Correct, l.Failed)
		}
		if len(l.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics in the result, want the %d per-layer ones", w.name, len(l.Metrics), len(perLayer))
		}
		if l.Metrics["core.deliver_ns"].Value <= 0 || l.Metrics["wire.decode_ns"].Value <= 0 {
			t.Errorf("%s: traced segments missing: %+v", w.name, l.Metrics)
		}
	}
	// Every per-layer metric is printed, and measures something on at
	// least one workload — except the four that read 0 while the stack
	// is healthy and its defaults stand.
	zero := map[string]string{
		"transport.stage_wait_ns": "frames are staged only with Config.Coalesce, which is off by default",
		"transport.failures":      "no workload exhausts the retries",
		"netsim.lost_queue":       "no workload overflows a receive queue",
		"relay.dup_dropped":       "the tree is consistent, so no frame arrives twice",
	}
	for _, def := range perLayer {
		if !strings.Contains(printed, "  "+def.Name+" ") {
			t.Errorf("per-layer metric %s is not printed", def.Name)
		}
		moved := false
		for _, l := range last {
			moved = moved || l.Metrics[def.Name].Value != 0
		}
		if _, ok := zero[def.Name]; !ok && !moved {
			t.Errorf("per-layer metric %s reads 0 on every workload", def.Name)
		}
	}
}

// TestCompare checks the three verdicts and the exit code of -compare.
func TestCompare(t *testing.T) {
	set := func(ops, spread, fail float64) *benchFile {
		return &benchFile{Schema: "wwds-bench/1", EndToEnd: endToEnd, Workloads: []*workloadReport{{
			Name: "p2p_stream", FailRatio: fail,
			Summary: map[string]stat{"ops_per_s": {Median: ops, Min: ops * (1 - spread/2), Max: ops * (1 + spread/2), N: 5}},
		}}}
	}
	for _, tc := range []struct {
		name     string
		old, new *benchFile
		want     string
		code     int
	}{
		{"same", set(1000, .02, 0), set(1010, .02, 0), "unchanged", 0},
		{"noisy", set(1000, .60, 0), set(1010, .02, 0), "unresolved", 0},
		{"slower", set(1000, .02, 0), set(600, .02, 0), "REGRESSION", 1},
		{"faster", set(1000, .02, 0), set(1600, .02, 0), "improved", 0},
		{"failing", set(1000, .02, 0), set(1000, .02, .001), "REGRESSION", 1},
	} {
		var out bytes.Buffer
		if code := compareSets(tc.old, tc.new, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
