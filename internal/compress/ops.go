package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// This file holds the compressed-domain operators: sargable predicate
// scans that run directly on the encoded payload instead of
// decompressing first. Each encoding gets its natural short-cut —
//
//   - RLE evaluates the predicate once per run,
//   - Dict pre-filters the ≤256-entry dictionary into a code bitset and
//     then only tests one bit per element,
//   - FOR (integers) rewrites the predicate bounds into the delta
//     domain and compares narrow deltas without reconstructing values,
//   - Raw degenerates to the plain fused scan.
//
// The folds are generic over the element type: one body per encoding,
// instantiated for float64 and int64. They branch on the type once per
// call (integral), never per element. Float64 accumulation deliberately
// stays element-ordered (a run value is added run-length times, not
// multiplied) so results are bit-identical to decompressing and running
// the executor's fused kernels; int64 arithmetic is exact mod 2^64, so
// closed forms are used where available.

// Op mirrors the executor's sargable comparison vocabulary. The package
// cannot import internal/exec (exec imports compress), so the enum
// lives here with identical ordering and semantics; bridging is a field
// copy.
type Op uint8

// Predicate comparisons.
const (
	// OpEQ selects x == Lo.
	OpEQ Op = iota
	// OpLT selects x < Hi (strict).
	OpLT
	// OpGT selects x > Lo (strict).
	OpGT
	// OpBetween selects Lo <= x <= Hi (inclusive).
	OpBetween
)

// Number is the element domain of the numeric operators: the two 8-byte
// numeric kinds.
type Number interface {
	~int64 | ~float64
}

// Pred is a sargable predicate over one 8-byte numeric column, the
// compressed-domain twin of exec.Pred.
type Pred[T Number] struct {
	// Op is the comparison.
	Op Op
	// Lo is the lower/equality bound (OpEQ, OpGT, OpBetween).
	Lo T
	// Hi is the upper bound (OpLT, OpBetween).
	Hi T
}

// Match evaluates the predicate on one value.
func (p Pred[T]) Match(x T) bool {
	switch p.Op {
	case OpEQ:
		return x == p.Lo
	case OpLT:
		return x < p.Hi
	case OpGT:
		return x > p.Lo
	case OpBetween:
		return p.Lo <= x && x <= p.Hi
	default:
		return false
	}
}

// fromBits reinterprets an 8-byte pattern as T: math.Float64frombits
// for floats, a plain conversion for integers.
func fromBits[T Number](u uint64) T { return *(*T)(unsafe.Pointer(&u)) }

// integral reports whether T is an integer kind (0.5 truncates to 0).
func integral[T Number]() bool {
	half := 0.5
	return T(half) == 0
}

// codeBits is a 256-way bitset over dictionary codes.
type codeBits [4]uint64

func (b *codeBits) set(code int)       { b[code>>6] |= 1 << (code & 63) }
func (b *codeBits) has(code byte) bool { return b[code>>6]&(1<<(code&63)) != 0 }

// dictFilter decodes the dictionary into vals and marks the codes whose
// value matches p.
func dictFilter[T Number](c *Column, p Pred[T], bits *codeBits, vals *[256]T) {
	for code := 0; code < len(c.dict)/8; code++ {
		vals[code] = fromBits[T](binary.LittleEndian.Uint64(c.dict[code*8:]))
		if p.Match(vals[code]) {
			bits.set(code)
		}
	}
}

// errNot8 rejects non-8-byte columns from the numeric operators.
func (c *Column) errNot8(what string) error {
	if c.size != 8 {
		return fmt.Errorf("%w: %s over %d-byte elements", ErrBadInput, what, c.size)
	}
	return nil
}

// SumWhere computes SUM(x), COUNT(*) WHERE p over an 8-byte column in
// the compressed domain. Float results are bit-identical to
// decompressing and summing elementwise in order; integer results are
// exact mod 2^64.
func SumWhere[T Number](c *Column, p Pred[T]) (T, int64, error) {
	if err := c.errNot8("sum-where"); err != nil {
		return 0, 0, err
	}
	var sum T
	var n int64
	switch c.enc {
	case RLE:
		sum, n = rleSumWhere(c, p)
	case Dict:
		sum, n = dictSumWhere(c, p)
	case FOR:
		sum, n = forSumWhere(c, p)
	default:
		sum, n = rawSumWhere(c, p)
	}
	return sum, n, nil
}

// rleSumWhere evaluates p once per run. Integers take the closed form
// value·length; floats still add the run value once per element so the
// float order matches the dense scan.
func rleSumWhere[T Number](c *Column, p Pred[T]) (sum T, n int64) {
	exact := integral[T]()
	start := uint32(0)
	for k, end := range c.runEnds {
		if v := fromBits[T](binary.LittleEndian.Uint64(c.runVals[k*8:])); p.Match(v) {
			if exact {
				sum += v * T(end-start)
			} else {
				for i := start; i < end; i++ {
					sum += v
				}
			}
			n += int64(end - start)
		}
		start = end
	}
	return sum, n
}

// dictSumWhere tests one code bit per element against the pre-filtered
// dictionary.
func dictSumWhere[T Number](c *Column, p Pred[T]) (sum T, n int64) {
	var bits codeBits
	var vals [256]T
	dictFilter(c, p, &bits, &vals)
	for _, code := range c.codes {
		if bits.has(code) {
			sum += vals[code]
			n++
		}
	}
	return sum, n
}

// forSumWhere compares integer deltas against the predicate rewritten
// into the delta domain and adds the bias base·count once. FOR frames a
// float's bit pattern, and IEEE ordering is unrelated to delta
// ordering, so floats decode elementwise.
func forSumWhere[T Number](c *Column, p Pred[T]) (sum T, n int64) {
	if integral[T]() {
		dLo, dHi, ok := c.forDeltaBounds(Pred[int64]{Op: p.Op, Lo: int64(p.Lo), Hi: int64(p.Hi)})
		if !ok {
			return 0, 0
		}
		var ds uint64
		for i := 0; i < c.n; i++ {
			if d := c.delta(i); dLo <= d && d <= dHi {
				ds += d
				n++
			}
		}
		return T(c.base*n + int64(ds)), n
	}
	for i := 0; i < c.n; i++ {
		if x := fromBits[T](uint64(c.base) + c.delta(i)); p.Match(x) {
			sum += x
			n++
		}
	}
	return sum, n
}

// rawSumWhere is the plain fused scan.
func rawSumWhere[T Number](c *Column, p Pred[T]) (sum T, n int64) {
	for i := 0; i < c.n; i++ {
		if x := fromBits[T](binary.LittleEndian.Uint64(c.raw[i*8:])); p.Match(x) {
			sum += x
			n++
		}
	}
	return sum, n
}

// Sum aggregates an 8-byte column without materializing. RLE and Dict
// use closed forms (run value × run length, dictionary value × code
// frequency): exact for integers, a deliberate reassociation for floats.
// FOR sums integer deltas against the frame base.
func Sum[T Number](c *Column) (T, error) {
	if err := c.errNot8("sum"); err != nil {
		return 0, err
	}
	var sum T
	switch c.enc {
	case RLE:
		start := uint32(0)
		for k, end := range c.runEnds {
			sum += fromBits[T](binary.LittleEndian.Uint64(c.runVals[k*8:])) * T(end-start)
			start = end
		}
	case Dict:
		var counts [256]int
		for _, code := range c.codes {
			counts[code]++
		}
		for code := 0; code < len(c.dict)/8; code++ {
			sum += fromBits[T](binary.LittleEndian.Uint64(c.dict[code*8:])) * T(counts[code])
		}
	case FOR:
		if integral[T]() {
			var ds uint64
			for i := 0; i < c.n; i++ {
				ds += c.delta(i)
			}
			return T(c.base*int64(c.n) + int64(ds)), nil
		}
		for i := 0; i < c.n; i++ {
			sum += fromBits[T](uint64(c.base) + c.delta(i))
		}
	default:
		for i := 0; i < c.n; i++ {
			sum += fromBits[T](binary.LittleEndian.Uint64(c.raw[i*8:]))
		}
	}
	return sum, nil
}

// forDeltaBounds rewrites an int64 predicate into the FOR delta domain:
// x = base + d with d in [0, 2^(8·width)), so p over x becomes the
// closed delta interval [dLo, dHi]. ok is false when no delta can
// match.
func (c *Column) forDeltaBounds(p Pred[int64]) (dLo, dHi uint64, ok bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch p.Op {
	case OpEQ:
		lo, hi = p.Lo, p.Lo
	case OpLT:
		if p.Hi == math.MinInt64 {
			return 0, 0, false
		}
		hi = p.Hi - 1
	case OpGT:
		if p.Lo == math.MaxInt64 {
			return 0, 0, false
		}
		lo = p.Lo + 1
	case OpBetween:
		if p.Lo > p.Hi {
			return 0, 0, false
		}
		lo, hi = p.Lo, p.Hi
	default:
		return 0, 0, false
	}
	if c.n == 0 || hi < c.base {
		return 0, 0, false
	}
	maxDelta := uint64(1)<<(8*c.width) - 1
	if lo > c.base {
		// Unsigned subtraction yields the exact non-negative difference
		// even when the signed difference would overflow.
		dLo = uint64(lo) - uint64(c.base)
		if dLo > maxDelta {
			return 0, 0, false
		}
	}
	dHi = uint64(hi) - uint64(c.base)
	if dHi > maxDelta {
		dHi = maxDelta
	}
	return dLo, dHi, true
}
