// Package lint is wwlint: a suite of static analyzers that mechanically
// enforce this repository's cross-cutting invariants — determinism of
// the seeded/replay packages, mutex discipline on annotated fields,
// context-first blocking APIs, goroutine-leak hygiene in long-lived
// services, wire-codec test coverage, and godoc discipline. The
// analyzers follow the golang.org/x/tools
// go/analysis pattern (Analyzer + Pass + Diagnostic, analysistest-style
// fixtures under testdata/), but the driver is a small self-contained
// reimplementation: the build is hermetic, so instead of vendoring
// x/tools the loader shells out to `go list -export -deps -test -json`
// and typechecks each package from source against the gc export data of
// its dependencies.
//
// The suite runs as one pass over the whole module:
//
//	go run ./scripts/wwlint ./...
//
// Findings are suppressed per line with an annotation that names the
// analyzer and must give a reason:
//
//	//wwlint:allow determinism wall-clock is report-only, not replayed
//
// or per file with //wwlint:allowfile <analyzer> <reason>. A reasonless
// annotation is itself a diagnostic. See DESIGN.md "Static analysis"
// for the analyzer table and the procedure for adding an invariant.
package lint
