package aadl

import (
	"runtime"
	"testing"
)

// FuzzParse drives the AADL front end. Whatever the text, Parse must not
// panic and must allocate in proportion to the text; every system
// implementation of an accepted package must go through the ACM, syscall,
// C, CAmkES and DAC generators and the linter without panicking (they may
// refuse it).
//
// The seeds live in testdata/fuzz/FuzzParse: the scenario model, fragments
// of it, the name-valued Syscalls and Kernels and the pair-valued
// Linux_Account property forms, and the Priority, Origin and Devices a
// booted process carries.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pkg, err := Parse(text)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<10+1<<10*uint64(len(text)) {
			t.Fatalf("parsing %d bytes allocated %d bytes", len(text), n)
		}
		if err != nil {
			return
		}
		for _, sys := range pkg.Systems {
			GenerateACM(pkg, sys.Name)
			GenerateSyscalls(pkg, sys.Name)
			GenerateC(pkg, sys.Name)
			if topo, err := GenerateCAmkES(pkg, sys.Name); err == nil {
				topo.RenderCAmkES(sys.Name)
			}
			if d, err := GenerateDAC(pkg, sys.Name); err == nil {
				d.Under(1000, 1000)
			}
			Lint(pkg, sys.Name)
		}
	})
}
