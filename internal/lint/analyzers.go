package lint

// All returns the full wwlint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerCtxcheck,
		AnalyzerDeterminism,
		AnalyzerDoccheck,
		AnalyzerGoleak,
		AnalyzerLockcheck,
		AnalyzerWirecheck,
	}
}

// ByName resolves a comma-separated analyzer selection; unknown names
// return nil.
func ByName(names []string) []*Analyzer {
	all := All()
	var out []*Analyzer
	for _, name := range names {
		found := false
		for _, az := range all {
			if az.Name == name {
				out = append(out, az)
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return out
}
