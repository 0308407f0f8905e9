package polcheck

import (
	"runtime"
	"testing"
)

// FuzzParseProperties drives the property-file parser behind polcheck
// -props. Whatever the text, it must not panic and must allocate in
// proportion to the text.
//
// The seeds live in testdata/fuzz/FuzzParseProperties.
func FuzzParseProperties(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ParseProperties(text)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<10+1<<10*uint64(len(text)) {
			t.Fatalf("parsing %d bytes allocated %d bytes", len(text), n)
		}
	})
}
