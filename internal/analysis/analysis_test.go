package analysis

import "testing"

// TestEveryAnalyzerHasOneEntryPoint pins the shape of the suite: an
// analyzer checks an invariant either package by package or module-wide,
// never both, and All lists them the way hcsgc-lint -list prints them.
func TestEveryAnalyzerHasOneEntryPoint(t *testing.T) {
	var names []string
	for _, a := range All() {
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("%s: Run set %v, RunModule set %v; want exactly one",
				a.Name, a.Run != nil, a.RunModule != nil)
		}
		names = append(names, a.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Errorf("All() must be sorted by name without repeats: %q follows %q", names[i], names[i-1])
		}
	}
}
