package decfmt

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFixed fails t unless AppendFixed writes the bytes
// strconv.AppendFloat(…, 'f', prec, 64) writes, after a shared prefix.
func checkFixed(t *testing.T, x float64, prec int) {
	t.Helper()
	got := AppendFixed([]byte("x="), x, prec)
	want := strconv.AppendFloat([]byte("x="), x, 'f', prec, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendFixed(%v [%#016x], %d) = %q, want %q", x, math.Float64bits(x), prec, got, want)
	}
}

// TestAppendFixedMatchesStrconv pins AppendFixed to strconv's bytes at both
// precisions it formats itself: status lines are Linux wire bytes and API
// bodies feed the benchmark digests, so not one may move.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	var xs []float64
	// Exact ties at the digit after the last kept one, j/8 and j/16 for
	// odd j, round to even.
	for j := 1; j < 2000; j += 2 {
		xs = append(xs, float64(j)/8, -float64(j)/8, float64(j)/16, -float64(j)/16)
	}
	xs = append(xs, 0, math.Copysign(0, -1), 0.125, 0.25, 0.375, -0.005, 0.005, 0.05, -0.05,
		0.0049999, -0.0049999, 0.015, 1.005, 0.45, 21.5, 22, 29.995, 29.95, -40.125, 1e-9, -1e-9,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52-1), -math.Float64frombits(1<<52-1), // largest subnormal
		math.Float64frombits(1<<52), -math.Float64frombits(1<<52), // smallest normal
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64)
	for _, lim := range limits[1:] {
		for _, l := range []float64{lim, -lim} {
			xs = append(xs, l, math.Nextafter(l, 0), math.Nextafter(l, 2*l),
				math.Nextafter(math.Nextafter(l, 0), 0))
		}
	}
	for prec := 1; prec <= 2; prec++ {
		for _, x := range xs {
			checkFixed(t, x, prec)
		}
		// Random bit patterns: half a million per precision over the
		// magnitudes AppendFixed formats itself, from 2^-20 up to 2^50,
		// above both limits; then a few thousand subnormals, and a few
		// thousand anywhere, which are mostly magnitudes strconv formats.
		rng := rand.New(rand.NewSource(int64(prec)))
		for i := 0; i < 500_000; i++ {
			sign, exp, mant := rng.Uint64()&(1<<63), uint64(1023-20+rng.Intn(71)), rng.Uint64()&(1<<52-1)
			checkFixed(t, math.Float64frombits(sign|exp<<52|mant), prec)
		}
		for i := 0; i < 2000; i++ {
			checkFixed(t, math.Float64frombits(rng.Uint64()&^(0x7ff<<52)), prec)
		}
		for i := 0; i < 5000; i++ {
			checkFixed(t, math.Float64frombits(rng.Uint64()), prec)
		}
	}
}

// TestAppendFixedOtherPrecisions: precisions AppendFixed does not format
// itself still come out as strconv's.
func TestAppendFixedOtherPrecisions(t *testing.T) {
	for _, prec := range []int{-1, 0, 3, 4} {
		for _, x := range []float64{0, 0.5, 1.5, -2.25, 21.123456, math.NaN(), math.Inf(-1)} {
			checkFixed(t, x, prec)
		}
	}
}

// FuzzAppendFixed: for any 64-bit pattern, at precision 1 or 2, the bytes
// equal strconv's.
func FuzzAppendFixed(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 0.125, -0.005, 21.5, limits[1], limits[2],
		math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1)} {
		f.Add(math.Float64bits(x), false)
		f.Add(math.Float64bits(x), true)
	}
	f.Fuzz(func(t *testing.T, bits uint64, two bool) {
		prec := 1
		if two {
			prec = 2
		}
		checkFixed(t, math.Float64frombits(bits), prec)
	})
}
