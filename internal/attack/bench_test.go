package attack

import "testing"

// BenchmarkForkBombCase times one whole fork-bomb case per platform: boot,
// the 30-minute settle, and the 3-hour attack window. On MINIX the bomb
// fills the 4,096-slot process table and then spends the rest of the window
// in refused fork2 calls; on Linux it runs into the global process limit.
// Those refusal paths are what the attack campaign spends most of its host
// time on, so this is the number below the benchmark's end-to-end metric.
func BenchmarkForkBombCase(b *testing.B) {
	for _, pl := range []Platform{PlatformMinix, PlatformLinux} {
		b.Run(string(pl)+"/user", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Execute(Spec{Platform: pl, Action: ActionForkBomb}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
