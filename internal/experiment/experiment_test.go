package experiment

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRegistryMatchesDesignDoc keeps DESIGN.md's experiment matrix and
// the registry from drifting: same ids, each described. E0 is the one row
// that is not a cell — it needs testing.B.RunParallel and lives in the
// root bench_test.go.
func TestRegistryMatchesDesignDoc(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, matrix, ok := strings.Cut(string(doc), "\n## Experiment matrix\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## Experiment matrix\" section")
	}
	matrix, _, _ = strings.Cut(matrix, "\n## ")
	var inDoc []string
	for _, row := range regexp.MustCompile(`(?m)^\| ([A-Z]\d+) \|`).FindAllStringSubmatch(matrix, -1) {
		if row[1] != "E0" {
			inDoc = append(inDoc, row[1])
		}
	}
	var inRegistry []string
	for _, e := range All() {
		inRegistry = append(inRegistry, e.ID)
		if strings.TrimSpace(e.Desc) == "" {
			t.Errorf("%s has no description", e.ID)
		}
	}
	if !slices.Equal(inDoc, inRegistry) {
		t.Errorf("experiment ids differ:\n DESIGN.md: %v\n registry:  %v", inDoc, inRegistry)
	}
}

// measureAll runs every cell of the named experiments and returns the
// results keyed "ID/cell".
func measureAll(t *testing.T, p Params, keep func(id, cell string) bool) map[string]Result {
	t.Helper()
	out := make(map[string]Result)
	for _, e := range All() {
		for _, c := range e.Cells(p) {
			if !keep(e.ID, c.Name) {
				continue
			}
			res, err := Measure(context.Background(), e.ID, c)
			if err != nil {
				t.Errorf("cell failed: %v", err)
				continue
			}
			out[e.ID+"/"+c.Name] = res
		}
	}
	return out
}

// TestExperimentsSmoke executes the whole matrix at smoke scale, minus
// the two swarm experiments internal/swarm's own tests already drive for
// half a minute: no cell may fail, and every reading must be a number a
// table or a JSON report can carry.
func TestExperimentsSmoke(t *testing.T) {
	results := measureAll(t, Params{Scale: Smoke}, func(id, _ string) bool { return id != "E11" && id != "E13" })
	for key, res := range results {
		if res.Skipped {
			t.Logf("%s: skipped", key)
			continue
		}
		if len(res.Metrics) == 0 {
			t.Errorf("%s: no metrics", key)
		}
		for _, mt := range res.Metrics {
			if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
				t.Errorf("%s: metric %s = %v", key, mt.Name, mt.Value)
			}
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%s: %v", key, err)
		}
	}
}

// TestSeededCellsReproduce: through the registry, the same seed over a
// single-shard network gives the same Figure 1 negotiation and the same
// broadcast delivery order at every listener.
func TestSeededCellsReproduce(t *testing.T) {
	seeded := map[string][]string{
		"F1/session":     {"slot", "rounds", "proposals"},
		"F1/traditional": {"slot", "rounds", "proposals"},
		"E14/n=100/flat": {"digest", "delivered"},
		"E14/n=100/tree": {"digest", "delivered"},
	}
	run := func() map[string]Result {
		return measureAll(t, Params{Seed: 7, Shards: 1, Scale: Smoke}, func(id, cell string) bool {
			_, ok := seeded[id+"/"+cell]
			return ok
		})
	}
	first, second := run(), run()
	for key, names := range seeded {
		for _, name := range names {
			get := func(res Result) float64 {
				i := slices.IndexFunc(res.Metrics, func(mt Metric) bool { return mt.Name == name })
				if i < 0 {
					t.Fatalf("%s: metric %s missing", key, name)
				}
				return res.Metrics[i].Value
			}
			if a, b := get(first[key]), get(second[key]); a != b {
				t.Errorf("%s: %s = %v then %v with the same seed", key, name, a, b)
			}
		}
	}
}
