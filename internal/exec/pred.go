package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"hybridstore/internal/compress"
	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/stats"
)

// This file is the data-skipping and kernel-specialization layer: a
// small sargable predicate vocabulary (Pred), per-operator zone-map
// pruning over the fragment statistics of internal/stats, and fused
// scan kernels whose inner loops decode aligned 8-byte strides directly
// — no per-row closure, one comparison branch per element. The generic
// closure-based Select*/Count* operators in filter.go remain the
// fallback for predicates this vocabulary cannot express.

// Zone-map observability. Counters track pruned/scanned pieces
// process-wide; the gauge reports the bytes skipped by the most recent
// pruned operator (a per-query figure by construction, since operators
// under one query run back to back); the span family records prune
// decisions for the adaptation layer's diagnostics.
var (
	mZonePruned      = obs.NewCounter("exec.zonemap.pruned")
	mZoneScanned     = obs.NewCounter("exec.zonemap.scanned")
	mZonePrunedBytes = obs.NewCounter("exec.zonemap.pruned_bytes_total")
	gZonePrunedBytes = obs.NewGauge("exec.zonemap.last_pruned_bytes")
	sfPrune          = obs.NewSpanFamily("exec.zonemap.prune")
)

// Fused-operator families (registered per policy like the others).
var (
	obsSumWhere   = newOpObs("sumwhere")
	obsCountWhere = newOpObs("countwhere")
	obsSelectPred = newOpObs("selectpred")
)

// Op is the comparison of a Pred.
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

// String names the comparison.
func (o Op) String() string {
	switch o {
	case OpEQ:
		return "eq"
	case OpLT:
		return "lt"
	case OpGT:
		return "gt"
	case OpBetween:
		return "between"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Number is the element domain of sargable predicates and of the
// generic kernels: the two 8-byte numeric kinds the zone maps cover. It
// is the compressed-domain operators' constraint, so one instantiation
// serves both packages.
type Number = compress.Number

// Pred is a sargable predicate over one 8-byte numeric column: an
// equality or range comparison the executor can both specialize (tight
// decode-and-compare loops) and prune (zone-map overlap tests). Lo
// carries the bound of OpEQ/OpGT and the lower bound of OpBetween; Hi
// carries the bound of OpLT and the upper bound of OpBetween.
type Pred[T Number] struct {
	// Op is the comparison.
	Op Op
	// Lo is the lower/equality bound (OpEQ, OpGT, OpBetween).
	Lo T
	// Hi is the upper bound (OpLT, OpBetween).
	Hi T
}

// Eq returns the predicate x == v.
func Eq[T Number](v T) Pred[T] { return Pred[T]{Op: OpEQ, Lo: v, Hi: v} }

// Lt returns the predicate x < v.
func Lt[T Number](v T) Pred[T] { return Pred[T]{Op: OpLT, Hi: v} }

// Gt returns the predicate x > v.
func Gt[T Number](v T) Pred[T] { return Pred[T]{Op: OpGT, Lo: v} }

// Between returns the predicate lo <= x <= hi (inclusive both sides).
func Between[T Number](lo, hi T) Pred[T] { return Pred[T]{Op: OpBetween, Lo: lo, Hi: hi} }

// Normalize canonicalizes a predicate so that semantically identical
// spellings compare equal as values: a between with equal bounds is an
// equality, and bound fields the operator never reads are zeroed (a
// wire-level `{"kind":"lt","lo":7,"hi":9}` matches the same rows as
// Lt(9) and must share its cohort and cache key). A degenerate NaN
// between stays a between: NaN == NaN is false, so the eq collapse
// does not fire and the (unmatchable) predicate keeps its shape.
func Normalize[T Number](p Pred[T]) Pred[T] {
	var zero T
	// canon scrubs float64 negative zero to positive zero: the two
	// compare equal and match the same rows, but carry different bit
	// patterns, which would split hash-sharded cohorts.
	canon := func(v T) T {
		if v == zero {
			return zero
		}
		return v
	}
	switch p.Op {
	case OpEQ:
		v := canon(p.Lo)
		return Pred[T]{Op: OpEQ, Lo: v, Hi: v}
	case OpLT:
		return Pred[T]{Op: OpLT, Lo: zero, Hi: canon(p.Hi)}
	case OpGT:
		return Pred[T]{Op: OpGT, Lo: canon(p.Lo), Hi: zero}
	case OpBetween:
		if p.Lo == p.Hi {
			v := canon(p.Lo)
			return Pred[T]{Op: OpEQ, Lo: v, Hi: v}
		}
		return Pred[T]{Op: OpBetween, Lo: canon(p.Lo), Hi: canon(p.Hi)}
	default:
		return p
	}
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

// admits reports whether a column whose values all lie in [min, max]
// can contain a match. This is the zone-map overlap test: false means
// the fragment is provably match-free and can be skipped.
func (p Pred[T]) admits(min, max T) bool {
	switch p.Op {
	case OpEQ:
		return min <= p.Lo && p.Lo <= max
	case OpLT:
		return min < p.Hi
	case OpGT:
		return max > p.Lo
	case OpBetween:
		return max >= p.Lo && min <= p.Hi
	default:
		return true
	}
}

// String renders the predicate.
func (p Pred[T]) String() string {
	switch p.Op {
	case OpEQ:
		return fmt.Sprintf("x == %v", p.Lo)
	case OpLT:
		return fmt.Sprintf("x < %v", p.Hi)
	case OpGT:
		return fmt.Sprintf("x > %v", p.Lo)
	case OpBetween:
		return fmt.Sprintf("%v <= x <= %v", p.Lo, p.Hi)
	default:
		return p.Op.String()
	}
}

// ClosedFloat64 normalizes a float64 predicate to the closed interval
// [lo, hi] with identical match semantics (strict bounds step to the
// adjacent representable double). ok is false for an empty interval.
// The device's fused filter kernel consumes this form.
func ClosedFloat64(p Pred[float64]) (lo, hi float64, ok bool) {
	switch p.Op {
	case OpEQ:
		return p.Lo, p.Lo, true
	case OpLT:
		return math.Inf(-1), math.Nextafter(p.Hi, math.Inf(-1)), !math.IsInf(p.Hi, -1)
	case OpGT:
		return math.Nextafter(p.Lo, math.Inf(1)), math.Inf(1), !math.IsInf(p.Lo, 1)
	case OpBetween:
		return p.Lo, p.Hi, p.Lo <= p.Hi
	default:
		return 0, 0, false
	}
}

// ClosedInt64 is ClosedFloat64 for int64 predicates.
func ClosedInt64(p Pred[int64]) (lo, hi int64, ok bool) {
	switch p.Op {
	case OpEQ:
		return p.Lo, p.Lo, true
	case OpLT:
		return math.MinInt64, p.Hi - 1, p.Hi != math.MinInt64
	case OpGT:
		return p.Lo + 1, math.MaxInt64, p.Lo != math.MaxInt64
	case OpBetween:
		return p.Lo, p.Hi, p.Lo <= p.Hi
	default:
		return 0, 0, false
	}
}

// closed is ClosedFloat64 or ClosedInt64, chosen once per call by the
// element type.
func closed[T Number](p Pred[T]) (lo, hi T, ok bool) {
	if integral[T]() {
		l, h, ok := ClosedInt64(Pred[int64]{Op: p.Op, Lo: int64(p.Lo), Hi: int64(p.Hi)})
		return T(l), T(h), ok
	}
	l, h, ok := ClosedFloat64(Pred[float64]{Op: p.Op, Lo: float64(p.Lo), Hi: float64(p.Hi)})
	return T(l), T(h), ok
}

// zoneAdmits reports whether the piece's zone map allows a match. A
// nil, invalid or foreign-kind zone admits everything — the scan falls
// back to touching the bytes.
func zoneAdmits[T Number](z *stats.Zone, p Pred[T]) bool {
	if integral[T]() {
		min, max, ok := z.Int64Bounds()
		return !ok || p.admits(T(min), T(max))
	}
	min, max, ok := z.Float64Bounds()
	return !ok || p.admits(T(min), T(max))
}

// ZoneAdmitsFloat64 exposes the zone-overlap test to engine code that
// prunes outside the host operators — the device paths decide before
// paying the transfer or the kernel launch. A nil, invalid or
// foreign-kind zone admits everything.
func ZoneAdmitsFloat64(z *stats.Zone, p Pred[float64]) bool { return zoneAdmits(z, p) }

// NoteZoneDecision records one zone consultation made outside the host
// operators (bytes is the fragment size the decision covered), keeping
// the pruned/scanned counters whole-system figures.
func NoteZoneDecision(admitted bool, bytes int64) {
	if admitted {
		mZoneScanned.Inc()
		return
	}
	mZonePruned.Inc()
	mZonePrunedBytes.Add(bytes)
}

// pruneByZone partitions pieces into the survivors of the zone test and
// accounts the decision: counters for pruned/scanned pieces, the
// per-query pruned-bytes gauge, a prune-decision span when anything was
// skipped, and — when the config carries a clock — the (tiny) cost of
// consulting one zone per piece. Survivors alias the input slice when
// nothing was pruned, so the common all-survive case allocates nothing.
func pruneByZone(cfg Config, pieces []Piece, admits func(z *stats.Zone) bool) (kept []Piece, prunedBytes int64) {
	pruned := 0
	for i, p := range pieces {
		if admits(p.Zone) {
			if pruned > 0 {
				kept = append(kept, p)
			}
			continue
		}
		if pruned == 0 {
			kept = append(kept, pieces[:i]...)
		}
		pruned++
		prunedBytes += int64(p.Vec.Len) * int64(p.Vec.Size)
	}
	if pruned == 0 {
		kept = pieces
	}
	mZoneScanned.Add(int64(len(kept)))
	gZonePrunedBytes.Set(prunedBytes)
	if pruned > 0 {
		sp := sfPrune.Start()
		mZonePruned.Add(int64(pruned))
		mZonePrunedBytes.Add(prunedBytes)
		sp.EndWith(fmt.Sprintf("pruned %d/%d pieces, %d bytes", pruned, len(pieces), prunedBytes))
	}
	if cfg.Clock != nil && len(pieces) > 0 {
		cfg.Clock.Advance(cfg.Host.ZoneCheckNs(len(pieces)))
	}
	return kept, prunedBytes
}

// checkSize8 rejects views whose fields are not 8 bytes wide.
func checkSize8(pieces []Piece, what string) error {
	for _, p := range pieces {
		if p.Vec.Size != 8 {
			return fmt.Errorf("%w: %s over %d-byte fields", ErrBadColumn, what, p.Vec.Size)
		}
	}
	return nil
}

// --- Specialized kernels -------------------------------------------------
//
// One generic loop per kernel, instantiated per element type. The
// predicate is normalized to a closed interval once per call, so the
// inner loop carries one two-sided compare and no per-element Op switch
// (the shape of the grouped and device kernels). The contiguous
// stride-8 case walks a dense byte run by re-slicing it 8 bytes at a
// time, which leaves the loop without bounds checks; the strided (NSM)
// case steps by the tuplet width.

// integral reports whether T is an integer kind (0.5 truncates to 0).
func integral[T Number]() bool {
	half := 0.5
	return T(half) == 0
}

// load decodes the little-endian 8-byte element at the front of b as T:
// math.Float64frombits for floats, a plain conversion for integers.
func load[T Number](b []byte) T {
	u := binary.LittleEndian.Uint64(b)
	return *(*T)(unsafe.Pointer(&u))
}

// sumWhere returns the sum (accumulated in T, so int64 sums are exact
// mod 2^64) and count of the elements of v[from:to) inside [lo, hi].
func sumWhere[T Number](v layout.ColVector, from, to int, lo, hi T) (sum T, n int64) {
	if v.Stride == 8 {
		for data := v.Data[v.Base+from*8 : v.Base+to*8]; len(data) >= 8; data = data[8:] {
			if x := load[T](data); lo <= x && x <= hi {
				sum += x
				n++
			}
		}
		return sum, n
	}
	off := v.Base + from*v.Stride
	for i := from; i < to; i++ {
		if x := load[T](v.Data[off:]); lo <= x && x <= hi {
			sum += x
			n++
		}
		off += v.Stride
	}
	return sum, n
}

// appendWhere appends the global positions of the elements of
// v[from:to) inside [lo, hi] (whose global position base is
// rowBase+from) to buf.
func appendWhere[T Number](buf []uint64, rowBase uint64, v layout.ColVector, from, to int, lo, hi T) []uint64 {
	if v.Stride == 8 {
		pos := rowBase + uint64(from)
		for data := v.Data[v.Base+from*8 : v.Base+to*8]; len(data) >= 8; data = data[8:] {
			if x := load[T](data); lo <= x && x <= hi {
				buf = append(buf, pos)
			}
			pos++
		}
		return buf
	}
	off := v.Base + from*v.Stride
	for i := from; i < to; i++ {
		if x := load[T](v.Data[off:]); lo <= x && x <= hi {
			buf = append(buf, rowBase+uint64(i))
		}
		off += v.Stride
	}
	return buf
}

// --- Fused operators -----------------------------------------------------

// SumWhere computes SUM(col), COUNT(*) WHERE p in one fused scan: no
// position list is materialized, pieces whose zone maps exclude the
// predicate are never touched, and only scanned bytes are charged to
// the platform model. The sum accumulates in T: float64 partials fold
// in the policy's order, int64 sums are exact mod 2^64.
func SumWhere[T Number](cfg Config, pieces []Piece, p Pred[T]) (T, int64, error) {
	return foldWhere(cfg, pieces, p, &obsSumWhere)
}

// SumFloat64Where is SumWhere over a float64 column.
func SumFloat64Where(cfg Config, pieces []Piece, p Pred[float64]) (float64, int64, error) {
	return SumWhere(cfg, pieces, p)
}

// CountWhere counts matches with zone-map pruning: it is the count half
// of the sum-where fold. The closure-based CountFloat64 remains the
// fallback for arbitrary predicates.
func CountWhere[T Number](cfg Config, pieces []Piece, p Pred[T]) (int64, error) {
	_, n, err := foldWhere(cfg, pieces, p, &obsCountWhere)
	return n, err
}

// CountWhereFloat64 is CountWhere over a float64 column.
func CountWhereFloat64(cfg Config, pieces []Piece, p Pred[float64]) (int64, error) {
	return CountWhere(cfg, pieces, p)
}

// foldWhere is the body of SumWhere and CountWhere, reporting to the
// operator family o: raw pieces run the dense fold under the policy,
// compressed pieces the compressed-domain fold, added after the raw
// partials.
func foldWhere[T Number](cfg Config, pieces []Piece, p Pred[T], o *opObs) (T, int64, error) {
	if err := checkSize8(pieces, "fused sum-where"); err != nil {
		return 0, 0, err
	}
	ot := o.start(cfg.Policy)
	defer ot.end()
	kept, _ := pruneByZone(cfg, pieces, func(z *stats.Zone) bool { return zoneAdmits(z, p) })
	raw, comp := splitComp(kept)
	lo, hi, ok := closed(p)
	var sum T
	var n int64
	if ok {
		sum, n = parallelFold(cfg, raw, func(v layout.ColVector, from, to int) (T, int64) {
			return sumWhere(v, from, to, lo, hi)
		})
	}
	if len(comp) > 0 {
		cs, cn, err := compSumWhere(cfg, comp, p)
		if err != nil {
			return 0, 0, err
		}
		sum += cs
		n += cn
	}
	cfg.chargeScan(kept)
	return sum, n, nil
}

// SelVec is a compact selection vector: the sorted global row positions
// a selection produced, backed by a pooled buffer. Callers that are done
// with the positions should Release the vector so high-selectivity
// results recycle instead of stranding their allocation.
type SelVec struct {
	pos []uint64
}

// Positions returns the sorted matching positions. The slice is invalid
// after Release.
func (s *SelVec) Positions() []uint64 {
	if s == nil {
		return nil
	}
	return s.pos
}

// Len returns the number of selected positions.
func (s *SelVec) Len() int {
	if s == nil {
		return 0
	}
	return len(s.pos)
}

// Release returns the backing buffer to the shared pool. The vector is
// empty afterwards; Release is idempotent.
func (s *SelVec) Release() {
	if s == nil || s.pos == nil {
		return
	}
	pool.PutPositions(s.pos)
	s.pos = nil
}

// SelectFloat64Pred scans a float64 column view with a specialized
// predicate kernel and returns the selection vector of matching global
// positions. Pieces excluded by their zone maps are skipped entirely.
func SelectFloat64Pred(cfg Config, pieces []Piece, p Pred[float64]) (*SelVec, error) {
	if err := checkSize8(pieces, "float64 predicate selection"); err != nil {
		return nil, err
	}
	if err := rejectComp(pieces, "predicate selection"); err != nil {
		return nil, err
	}
	ot := obsSelectPred.start(cfg.Policy)
	defer ot.end()
	kept, _ := pruneByZone(cfg, pieces, func(z *stats.Zone) bool { return zoneAdmits(z, p) })
	cfg.chargeScan(kept)
	lo, hi, ok := closed(p)
	if !ok {
		return &SelVec{}, nil
	}
	out := selectPositionsInto(cfg, kept, func(buf []uint64, gFrom, gTo int) []uint64 {
		eachRange(kept, gFrom, gTo, func(pc Piece, from, to int) {
			buf = appendWhere(buf, pc.Rows.Begin, pc.Vec, from, to, lo, hi)
		})
		return buf
	})
	return &SelVec{pos: out}, nil
}
