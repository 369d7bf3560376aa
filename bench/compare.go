package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != "wwds-bench/1" {
		return nil, fmt.Errorf("%s: schema %q, want wwds-bench/1", path, f.Schema)
	}
	return &f, nil
}

// worseBy is how much worse b is than a, as a share of a: positive when
// the metric moved against its direction.
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is a stat's round-to-round range as a share of its median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Median
}

// compareFiles prints, per workload and metric, both medians, the round
// spread and the change against the metric's bound. It returns non-zero
// when an end-to-end metric is worse by more than its bound or a
// workload's fail_ratio rose. A change inside the bound is "unchanged"
// only when the rounds themselves agree within the bound; otherwise it
// is "unresolved".
func compareFiles(oldPath, newPath string, out, errw io.Writer) int {
	oldF, err := readBenchFile(oldPath)
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 2
	}
	newF, err := readBenchFile(newPath)
	if err != nil {
		fmt.Fprintln(errw, "bench:", err)
		return 2
	}
	return compareSets(oldF, newF, out)
}

func compareSets(oldF, newF *benchFile, out io.Writer) int {
	olds := make(map[string]*workloadReport)
	for _, w := range oldF.Workloads {
		olds[w.Name] = w
	}
	fmt.Fprintf(out, "old: commit %s seed %d  new: commit %s seed %d\n", oldF.Commit, oldF.Seed, newF.Commit, newF.Seed)
	bad := 0
	for _, nw := range newF.Workloads {
		ow := olds[nw.Name]
		if ow == nil {
			fmt.Fprintf(out, "\nworkload %s: not in old file\n", nw.Name)
			continue
		}
		fmt.Fprintf(out, "\nworkload %s\n", nw.Name)
		fmt.Fprintf(out, "  %-32s %-6s %14s %14s %8s %8s %6s  %s\n", "metric", "unit", "old", "new", "worse%", "spread%", "bound%", "verdict")
		verdict := "unchanged"
		if nw.FailRatio > ow.FailRatio {
			verdict = "REGRESSION"
			bad++
		}
		fmt.Fprintf(out, "  %-32s %-6s %14.6g %14.6g %8s %8s %6s  %s\n", "fail_ratio", "ratio", ow.FailRatio, nw.FailRatio, "", "", "any", verdict)
		for _, def := range newF.EndToEnd {
			o, okO := ow.Summary[def.Name]
			n, okN := nw.Summary[def.Name]
			if !okO || !okN {
				continue
			}
			worse := worseBy(def, o.Median, n.Median)
			spread := max(o.spread(), n.spread())
			switch {
			case worse > def.Bound:
				verdict = "REGRESSION"
				bad++
			case spread > def.Bound:
				verdict = "unresolved"
			case worse < -def.Bound:
				verdict = "improved"
			default:
				verdict = "unchanged"
			}
			fmt.Fprintf(out, "  %-32s %-6s %14.4f %14.4f %+8.2f %8.2f %6.1f  %s\n",
				def.Name, def.Unit, o.Median, n.Median, 100*worse, 100*spread, 100*def.Bound, verdict)
		}
		for _, def := range newF.PerLayer {
			o, okO := ow.Summary[def.Name]
			n, okN := nw.Summary[def.Name]
			if okO && okN {
				fmt.Fprintf(out, "  %-32s %-6s %14.4f %14.4f %+8.2f %8.2f\n",
					def.Name, def.Unit, o.Median, n.Median, 100*worseBy(def, o.Median, n.Median), 100*max(o.spread(), n.spread()))
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d regression(s) beyond bound\n", bad)
		return 1
	}
	return 0
}
