package lab

import (
	"runtime"
	"testing"
)

// FuzzParseSweep drives the campaign-spec parser behind bas lab -sweep.
// Whatever the text, it must not panic and must allocate in proportion to
// the text, and an accepted sweep's Validate must not panic.
//
// The seeds live in testdata/fuzz/FuzzParseSweep.
func FuzzParseSweep(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ParseSweep(spec)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<10+1<<10*uint64(len(spec)) {
			t.Fatalf("parsing %d bytes allocated %d bytes", len(spec), n)
		}
		if err == nil {
			s.Validate()
		}
	})
}
