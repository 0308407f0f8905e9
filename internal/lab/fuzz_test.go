package lab

import (
	"runtime"
	"testing"
)

// FuzzParseSweep drives the two campaign-spec parsers, the board sweep
// behind bas lab -sweep and the building sweep behind bas building -sweep.
// Whatever the text, neither may panic or allocate out of proportion to
// the text, and an accepted sweep's Validate must not panic.
//
// The seeds live in testdata/fuzz/FuzzParseSweep.
func FuzzParseSweep(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		bound := 16<<10 + 1<<10*uint64(len(spec))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ParseSweep(spec)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > bound {
			t.Fatalf("parsing %d bytes as a board sweep allocated %d bytes", len(spec), n)
		}
		if err == nil {
			s.Validate()
		}
		runtime.ReadMemStats(&before)
		b, err := ParseBuildingSweep(spec)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > bound {
			t.Fatalf("parsing %d bytes as a building sweep allocated %d bytes", len(spec), n)
		}
		if err == nil {
			b.Validate()
		}
	})
}
