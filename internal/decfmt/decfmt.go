// Package decfmt formats float64 values at a fixed decimal precision,
// byte-identical to strconv.AppendFloat(buf, x, 'f', prec, 64), without
// strconv's arbitrary-precision path. strconv sends every fixed-precision
// 'f' format there, which makes it the dominant cost of a status reply or
// a setpoint echo; the magnitudes a building reports (room temperatures,
// setpoints) take the exact integer path below instead.
package decfmt

import (
	"math"
	"strconv"
)

// pow10 is 10^prec for the precisions AppendFixed formats itself.
var pow10 = [...]uint64{1, 10, 100}

// limits bounds the magnitudes AppendFixed formats itself at each
// precision: 2^53/10^prec.
var limits = [...]float64{0, 1 << 53 / 10.0, 1 << 53 / 100.0}

// AppendFixed appends x exactly as strconv.AppendFloat(buf, x, 'f', prec,
// 64) does. For prec 1 and 2 and |x| below 2^53/10^prec, x is mant/2^shift
// with shift > 0 and mant < 2^53, so x×10^prec rounds to the nearest
// integer, ties to even, from the exact 64-bit product mant×10^prec. A
// negative x keeps its sign even when it rounds to zero, as strconv's
// -0.00 does. Other precisions, NaN, the infinities and larger magnitudes
// go to strconv.
func AppendFixed(buf []byte, x float64, prec int) []byte {
	if prec < 1 || prec > 2 || !(math.Abs(x) < limits[prec]) {
		return strconv.AppendFloat(buf, x, 'f', prec, 64)
	}
	b := math.Float64bits(x)
	mant, exp := b&(1<<52-1), int(b>>52&0x7ff)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	scale := pow10[prec]
	var n uint64
	if shift := uint(1075 - exp); shift < 64 {
		p := mant * scale
		n = p >> shift
		rem, half := p&(1<<shift-1), uint64(1)<<(shift-1)
		if rem > half || rem == half && n&1 == 1 {
			n++
		}
	}
	if b>>63 != 0 {
		buf = append(buf, '-')
	}
	buf = strconv.AppendUint(buf, n/scale, 10)
	buf = append(buf, '.')
	if prec == 2 {
		buf = append(buf, byte('0'+n/10%10))
	}
	return append(buf, byte('0'+n%10))
}
