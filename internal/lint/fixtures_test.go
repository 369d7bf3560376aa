package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/lintest"
)

// fixtureDir is the fixture module; it is a separate module under
// testdata so the repo's own build and lint runs never see it.
const fixtureDir = "testdata/mod"

// TestAnalyzerFixtures proves each analyzer both catches its violation
// class and honors //wwlint:allow suppressions: lintest enforces an
// exact match between diagnostics and the fixtures' want comments, so
// a suppression that stopped working would surface as an unexpected
// diagnostic.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer string
		patterns []string
	}{
		{"determinism", []string{"./netsim"}},
		{"lockcheck", []string{"./locked"}},
		{"goleak", []string{"./transport"}},
		{"ctxcheck", []string{"./api"}},
		{"doccheck", []string{"./docs"}},
		{"wirecheck", []string{"./internal/wire", "./msg", "./linkedmsg", "./wiretest"}},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			t.Parallel()
			lintest.Run(t, fixtureDir, tc.patterns, lint.ByName([]string{tc.analyzer}))
		})
	}
	t.Run("nowait", func(t *testing.T) {
		t.Parallel()
		lintest.Run(t, fixtureDir, []string{"./nowait"}, []*lint.Analyzer{lint.AnalyzerNowait})
	})
}

// TestNothingWaitsOnReceivePath runs the nowait analyzer over the module:
// nothing reachable from a transport sink, a receive observer, an inline
// inbox, a timer callback or the receive loop may wait.
func TestNothingWaitsOnReceivePath(t *testing.T) {
	w, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := lint.Run(w, []*lint.Analyzer{lint.AnalyzerNowait})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestMalformedAnnotationReported checks the driver's annotation
// grammar gate: a reasonless //wwlint:allow is itself a finding.
func TestMalformedAnnotationReported(t *testing.T) {
	w, err := lint.Load(fixtureDir, "./badnote")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := lint.Run(w, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "annotation" || !strings.Contains(d.Message, "needs a reason") {
		t.Fatalf("unexpected diagnostic: %v", d)
	}
}
