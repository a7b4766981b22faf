package device

import (
	"fmt"

	"hybridstore/internal/compress"
)

// Compressed-domain device execution: the scan ships a column's
// compressed image (compress.Column.Marshal) over the bus instead of
// its raw bytes, and the card runs a decode kernel fused with the
// filter+reduction. The software card computes the real answer through
// the compressed-domain operators of internal/compress; the priced cost
// is the decode kernel (compressed bytes read + raw bytes written at
// global bandwidth, perfmodel.DecodeKernelNs) plus the usual dense
// tree-reduction over the decoded column. Three launches are counted:
// decode, grid reduction, final block.

// ReduceSumFloat64WhereCompressed decodes the compressed column image
// resident in buf and reduces SUM/COUNT of the elements inside the
// closed interval [lo, hi].
func (g *GPU) ReduceSumFloat64WhereCompressed(buf *Buffer, lo, hi float64, cfg LaunchConfig) (float64, int64, error) {
	total, n, ns, err := g.reduceSumFloat64WhereCompressed(buf, lo, hi, cfg)
	if err != nil {
		return 0, 0, err
	}
	g.charge(ns)
	return total, n, nil
}

// reduceSumFloat64WhereCompressed runs the decode+reduce and returns its
// priced duration without advancing the clock (streams charge an
// overlapped total at Wait).
func (g *GPU) reduceSumFloat64WhereCompressed(buf *Buffer, lo, hi float64, cfg LaunchConfig) (float64, int64, float64, error) {
	return g.reduceCompressed(buf, cfg, func(col *compress.Column) (float64, int64, error) {
		return compress.SumWhere(col, compress.Pred[float64]{Op: compress.OpBetween, Lo: lo, Hi: hi})
	})
}

// reduceCompressed decodes the compressed column image resident in buf,
// folds it with fold, and prices the decode kernel plus the dense tree
// reduction over the decoded column.
func (g *GPU) reduceCompressed(buf *Buffer, cfg LaunchConfig, fold func(col *compress.Column) (float64, int64, error)) (float64, int64, float64, error) {
	if err := g.validate(cfg, true); err != nil {
		return 0, 0, 0, err
	}
	data, err := buf.bytes()
	if err != nil {
		return 0, 0, 0, err
	}
	col, err := compress.Decode(data)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("device: compressed image: %w", err)
	}
	if col.ElementSize() != 8 {
		return 0, 0, 0, fmt.Errorf("%w: float64 reduction over %d-byte elements", ErrBadLaunch, col.ElementSize())
	}
	total, n, err := fold(col)
	if err != nil {
		return 0, 0, 0, err
	}
	g.countKernels(3)
	ns := g.prof.DecodeKernelNs(int64(len(data)), int64(col.Len()*col.ElementSize())) +
		g.prof.ReduceKernelNs(int64(col.Len()), col.ElementSize(), col.ElementSize(), cfg.Blocks, cfg.ThreadsPerBlock)
	return total, n, ns, nil
}

// ReduceSumFloat64WhereCompressed enqueues the decode+reduce pipeline on
// the stream; both kernel phases land in the compute lane, so the next
// piece's (compressed) H2D copy overlaps them.
func (s *Stream) ReduceSumFloat64WhereCompressed(buf *Buffer, lo, hi float64, cfg LaunchConfig) (float64, int64, error) {
	total, n, ns, err := s.gpu.reduceSumFloat64WhereCompressed(buf, lo, hi, cfg)
	if err != nil {
		return 0, 0, err
	}
	s.addCompute(ns)
	return total, n, nil
}

// ReduceSumFloat64Compressed is the unfiltered decode+reduce: the whole
// decoded column sums, NaNs included, matching ReduceSumFloat64 over the
// dense image.
func (g *GPU) ReduceSumFloat64Compressed(buf *Buffer, cfg LaunchConfig) (float64, error) {
	total, ns, err := g.reduceSumFloat64Compressed(buf, cfg)
	if err != nil {
		return 0, err
	}
	g.charge(ns)
	return total, nil
}

// reduceSumFloat64Compressed runs the unfiltered decode+reduce and
// returns its priced duration without advancing the clock.
func (g *GPU) reduceSumFloat64Compressed(buf *Buffer, cfg LaunchConfig) (float64, float64, error) {
	total, _, ns, err := g.reduceCompressed(buf, cfg, func(col *compress.Column) (float64, int64, error) {
		sum, err := compress.Sum[float64](col)
		return sum, 0, err
	})
	return total, ns, err
}

// ReduceSumFloat64Compressed enqueues the unfiltered decode+reduce on
// the stream's compute lane.
func (s *Stream) ReduceSumFloat64Compressed(buf *Buffer, cfg LaunchConfig) (float64, error) {
	total, ns, err := s.gpu.reduceSumFloat64Compressed(buf, cfg)
	if err != nil {
		return 0, err
	}
	s.addCompute(ns)
	return total, nil
}
