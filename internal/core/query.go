package core

import (
	"errors"
	"fmt"
	"math"

	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/tx"
	"hybridstore/internal/workload"
)

// Get materializes the current record at row: the newest committed delta
// version if one exists, else the base fragments.
func (t *Table) Get(row uint64) (schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if row >= t.rel.Rows() {
		return nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rel.Rows())
	}
	return t.getLocked(row)
}

// getLocked is the point-read body shared by Get and GetByPK. Caller
// holds t.mu (read side) and has checked row is in range. Delta-free
// rows are served from / published to the result cache under the stamp
// of just their chunk's fragments (see rescache.go for the validity
// argument).
func (t *Table) getLocked(row uint64) (schema.Record, error) {
	t.mon.Observe(workload.Op{Kind: workload.PointRead, Cols: layout.AllCols(t.s)})
	cache := t.eng.rescache
	var key rescache.Key
	var st rescache.Stamp
	cacheable := false
	if cache != nil {
		if t.deltas.LatestTS(row) == 0 {
			if c, err := t.chunkFor(row); err == nil {
				key, st = t.rowCacheKey(row), t.chunkStampLocked(c)
				cacheable = true
				if v, ok := cache.Lookup(key, st); ok {
					return v.Rec, nil
				}
			}
		}
		if !cacheable {
			cache.Bypass()
		}
	}
	reader := t.txm.Begin()
	defer reader.Abort()
	rec, err := t.recordAt(reader, row)
	if err != nil {
		return nil, err
	}
	if cacheable && t.deltas.LatestTS(row) == 0 {
		cache.Put(key, st, rescache.Value{Rec: rec})
	}
	return rec, nil
}

// recordAt resolves row under the given transaction's snapshot.
func (t *Table) recordAt(x *tx.Tx, row uint64) (schema.Record, error) {
	if rec, err := x.Read(t.deltas, row); err == nil {
		return rec, nil
	} else if !errors.Is(err, tx.ErrNotFound) {
		return nil, err
	}
	return t.baseRecord(row)
}

// Update installs a new version of one field through a single-operation
// transaction; base fragments are never written (so pinned analytic
// snapshots stay stable).
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	if col < 0 || col >= t.s.Arity() {
		return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	if err := t.guardPKUpdate(col); err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if row >= t.rel.Rows() {
		return fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rel.Rows())
	}
	x := t.txm.Begin()
	rec, err := t.recordAt(x, row)
	if err != nil {
		x.Abort()
		return err
	}
	rec[col] = v
	if err := x.Write(t.deltas, row, rec); err != nil {
		x.Abort()
		return err
	}
	if err := x.Commit(); err != nil {
		return err
	}
	t.mon.Observe(workload.Op{Kind: workload.PointUpdate, Row: row, Cols: []int{col}})
	return nil
}

// Materialize resolves a sorted position list against the current state.
func (t *Table) Materialize(positions []uint64) ([]schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	reader := t.txm.Begin()
	defer reader.Abort()
	out := make([]schema.Record, len(positions))
	for i, p := range positions {
		if p >= t.rel.Rows() {
			return nil, fmt.Errorf("%w: position %d of %d", engine.ErrNoSuchRow, p, t.rel.Rows())
		}
		rec, err := t.recordAt(reader, p)
		if err != nil {
			return nil, err
		}
		out[i] = rec
		t.mon.Observe(workload.Op{Kind: workload.PointRead, Cols: layout.AllCols(t.s)})
	}
	return out, nil
}

// SumFloat64 aggregates col over a pinned MVCC snapshot: base fragments
// are scanned in bulk (device-resident fragments through the reduction
// kernel, host fragments through the bulk operator), then the snapshot's
// visible delta versions are patched over the base values.
func (t *Table) SumFloat64(col int) (float64, error) {
	if col < 0 || col >= t.s.Arity() {
		return 0, fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	if t.s.Attr(col).Kind != schema.Float64 {
		return 0, fmt.Errorf("%w: attribute %s is %s", exec.ErrBadColumn, t.s.Attr(col).Name, t.s.Attr(col).Kind)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	reader := t.txm.Begin()
	defer reader.Abort()
	t.mon.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{col}})

	cache, ck, cst, cacheable := t.aggCacheBegin(rescache.OpSum, col, 0, exec.Pred[float64]{}, false)
	if cacheable {
		if v, ok := cache.Lookup(ck, cst); ok {
			return v.Sum, nil
		}
	}

	rows := t.rel.Rows()
	var sum float64
	var hostPieces, cachePieces []exec.Piece
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		frag, err := t.fragmentForCol(c, col)
		if err != nil {
			return 0, err
		}
		v, err := frag.ColVector(col)
		if err != nil {
			return 0, err
		}
		if frag.Space() == t.env.GPU.Allocator().Space() {
			dv := device.Vec{Data: v.Data, Base: v.Base, Stride: v.Stride, Size: v.Size, Len: v.Len}
			cfg := device.DefaultReduceConfig()
			if v.Len < cfg.Blocks*2 {
				cfg = device.LaunchConfig{Blocks: 8, ThreadsPerBlock: 64}
			}
			part, err := t.env.GPU.ReduceSumFloat64(dv, cfg)
			if err != nil {
				return 0, err
			}
			sum += part
			continue
		}
		piece := exec.Piece{
			Rows:   layout.RowRange{Begin: c.rows.Begin, End: c.rows.Begin + uint64(v.Len)},
			Vec:    v,
			FragID: frag.ID(), FragVersion: frag.Version(),
		}
		t.attachCompressed(&piece, c, col)
		// See SumFloat64Where: cold fragments ride the device cache, hot
		// chunks stay on the host operator.
		if t.eng.opts.DeviceCache && t.env.Cache != nil && c.state == cold {
			cachePieces = append(cachePieces, piece)
			continue
		}
		hostPieces = append(hostPieces, piece)
	}
	if len(cachePieces) > 0 {
		ds := t.env.DeviceExec(t.rel.Name())
		devSum, err := ds.SumFloat64(col, cachePieces)
		if err != nil {
			return 0, err
		}
		sum += devSum
	}
	hostSum, err := exec.SumFloat64(t.cfg, hostPieces)
	if err != nil {
		return 0, err
	}
	sum += hostSum

	// Patch the snapshot's visible versions over the base values.
	for _, v := range t.patchVersions(reader.SnapshotTS(), rows) {
		base, err := t.baseValue(v.Row, col)
		if err != nil {
			return 0, err
		}
		sum += v.Rec[col].F - base.F
	}
	t.aggCachePut(cache, ck, cst, rescache.Value{Sum: sum}, cacheable)
	return sum, nil
}

// SumFloat64Where aggregates (sum, count) of col over the rows matching
// p, skipping base fragments whose zone maps prove them match-free.
// Device-resident fragments decide before paying the kernel launch; host
// fragments carry their zones into the fused bulk operator. The MVCC
// patch stays exact under pruning because zones are conservative: a base
// value that matches p always lives in a fragment whose zone admits p,
// so it was part of the base scan and can be subtracted.
func (t *Table) SumFloat64Where(col int, p exec.Pred[float64]) (float64, int64, error) {
	if col < 0 || col >= t.s.Arity() {
		return 0, 0, fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	if t.s.Attr(col).Kind != schema.Float64 {
		return 0, 0, fmt.Errorf("%w: attribute %s is %s", exec.ErrBadColumn, t.s.Attr(col).Name, t.s.Attr(col).Kind)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	reader := t.txm.Begin()
	defer reader.Abort()
	t.mon.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{col}})

	cache, ck, cst, cacheable := t.aggCacheBegin(rescache.OpSumWhere, col, 0, p, true)
	if cacheable {
		if v, ok := cache.Lookup(ck, cst); ok {
			return v.Sum, v.Count, nil
		}
	}

	rows := t.rel.Rows()
	_, _, closed := exec.ClosedFloat64(p)
	var sum float64
	var n int64
	var hostPieces, cachePieces []exec.Piece
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		frag, err := t.fragmentForCol(c, col)
		if err != nil {
			return 0, 0, err
		}
		v, err := frag.ColVector(col)
		if err != nil {
			return 0, 0, err
		}
		if frag.Space() == t.env.GPU.Allocator().Space() {
			bytes := int64(v.Len) * int64(v.Size)
			if !exec.ZoneAdmitsFloat64(frag.Stats(col), p) {
				exec.NoteZoneDecision(false, bytes)
				continue
			}
			exec.NoteZoneDecision(true, bytes)
			lo, hi, ok := exec.ClosedFloat64(p)
			if !ok {
				continue
			}
			dv := device.Vec{Data: v.Data, Base: v.Base, Stride: v.Stride, Size: v.Size, Len: v.Len}
			cfg := device.DefaultReduceConfig()
			if v.Len < cfg.Blocks*2 {
				cfg = device.LaunchConfig{Blocks: 8, ThreadsPerBlock: 64}
			}
			part, cnt, err := t.env.GPU.ReduceSumFloat64Where(dv, lo, hi, cfg)
			if err != nil {
				return 0, 0, err
			}
			sum += part
			n += cnt
			continue
		}
		piece := exec.Piece{
			Rows:   layout.RowRange{Begin: c.rows.Begin, End: c.rows.Begin + uint64(v.Len)},
			Vec:    v,
			Zone:   frag.Stats(col),
			FragID: frag.ID(), FragVersion: frag.Version(),
		}
		t.attachCompressed(&piece, c, col)
		// Cold host fragments scan on the device through the fragment
		// cache when enabled: the first scan ships the column image, later
		// scans over unchanged fragments reuse it for zero bus bytes. Hot
		// chunks stay on the host operator — every insert would invalidate
		// their image, so caching them only thrashes the bus.
		if t.eng.opts.DeviceCache && t.env.Cache != nil && c.state == cold && closed {
			cachePieces = append(cachePieces, piece)
			continue
		}
		hostPieces = append(hostPieces, piece)
	}
	if len(cachePieces) > 0 {
		ds := t.env.DeviceExec(t.rel.Name())
		devSum, devN, err := ds.SumFloat64Where(col, cachePieces, p)
		if err != nil {
			return 0, 0, err
		}
		sum += devSum
		n += devN
	}
	hostSum, hostN, err := exec.SumFloat64Where(t.cfg, hostPieces, p)
	if err != nil {
		return 0, 0, err
	}
	sum += hostSum
	n += hostN

	// Patch the snapshot's visible versions over the base contribution.
	for _, v := range t.patchVersions(reader.SnapshotTS(), rows) {
		base, err := t.baseValue(v.Row, col)
		if err != nil {
			return 0, 0, err
		}
		if p.Match(base.F) {
			sum -= base.F
			n--
		}
		if p.Match(v.Rec[col].F) {
			sum += v.Rec[col].F
			n++
		}
	}
	t.aggCachePut(cache, ck, cst, rescache.Value{Sum: sum, Count: n}, cacheable)
	return sum, n, nil
}

// CountWhereFloat64 counts the rows matching p on col with the same
// pruning as SumFloat64Where.
func (t *Table) CountWhereFloat64(col int, p exec.Pred[float64]) (int64, error) {
	_, n, err := t.SumFloat64Where(col, p)
	return n, err
}

// patchVersions is the one MVCC patch walk: the delta versions visible
// at snapshot ts for rows below rows, in ascending row order, delete
// markers dropped. Every aggregate folds it over its base result in this
// order, which keeps their float sums bit-identical to one another.
func (t *Table) patchVersions(ts, rows uint64) []tx.Version {
	vs := t.deltas.VisibleAt(ts)
	out := vs[:0]
	for _, v := range vs {
		if v.Row < rows && !v.Deleted {
			out = append(out, v)
		}
	}
	return out
}

// attachCompressed swaps a cold piece's execution format to the chunk's
// side-car compressed image when one covers the column: the vector keeps
// its logical metadata but drops the dense bytes, so the host operator
// evaluates in the compressed domain and the device path ships the
// compressed image over the bus.
func (t *Table) attachCompressed(piece *exec.Piece, c *chunk, col int) {
	if !t.eng.opts.Compress || c.state != cold || col >= len(c.comp) || c.comp[col] == nil {
		return
	}
	if c.comp[col].Len() != piece.Vec.Len {
		return // clipped view; the image covers the whole chunk
	}
	piece.Comp = c.comp[col]
	piece.Vec.Data = nil
	piece.Vec.Base = 0
}

// fragmentForCol returns the base fragment storing (chunk, col).
func (t *Table) fragmentForCol(c *chunk, col int) (*layout.Fragment, error) {
	if c.state == hot {
		return c.nsm, nil
	}
	for gi, f := range c.frags {
		for _, gc := range c.groups[gi] {
			if gc == col {
				return f, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: chunk %v col %d", layout.ErrNotCovered, c.rows, col)
}

// baseValue reads one field from the base fragments.
func (t *Table) baseValue(row uint64, col int) (schema.Value, error) {
	c, err := t.chunkFor(row)
	if err != nil {
		return schema.Value{}, err
	}
	f, err := t.fragmentForCol(c, col)
	if err != nil {
		return schema.Value{}, err
	}
	return f.Get(int(row-c.rows.Begin), col)
}

// Txn is an interactive multi-operation transaction over the table with
// snapshot isolation (reads see the snapshot plus own writes; commit is
// first-committer-wins).
type Txn struct {
	t *Table
	x *tx.Tx
}

// Begin opens a transaction.
func (t *Table) Begin() *Txn { return &Txn{t: t, x: t.txm.Begin()} }

// Read returns the record at row under the transaction's snapshot.
func (x *Txn) Read(row uint64) (schema.Record, error) {
	x.t.mu.RLock()
	defer x.t.mu.RUnlock()
	if row >= x.t.rel.Rows() {
		return nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, x.t.rel.Rows())
	}
	return x.t.recordAt(x.x, row)
}

// Update buffers a field update.
func (x *Txn) Update(row uint64, col int, v schema.Value) error {
	if err := x.t.guardPKUpdate(col); err != nil {
		return err
	}
	rec, err := x.Read(row)
	if err != nil {
		return err
	}
	rec[col] = v
	return x.x.Write(x.t.deltas, row, rec)
}

// Commit installs the buffered writes (ErrConflict on lost races).
func (x *Txn) Commit() error { return x.x.Commit() }

// Abort discards the transaction.
func (x *Txn) Abort() { x.x.Abort() }

// Merge folds delta versions no active snapshot needs back into the base
// fragments and prunes the version store — the background pass that keeps
// scan patching cheap. Cold fragments are rewritten in place (they are
// only immutable with respect to *transactions*). Only rows whose newest
// version is settled (committed at or before MinActiveTS) are folded.
// Interactive commits take no table lock, so one can land on a row after
// its fold; Forget then keeps that row's chain.
func (t *Table) Merge() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := sfMerge.Start()
	defer sp.End()
	minTS := t.txm.MinActiveTS()
	// Cold fragments rewritten below already stop validating through their
	// version bumps; collecting them lets the device cache release the
	// stale images' memory eagerly rather than waiting for capacity
	// pressure.
	touched := make(map[*layout.Fragment]bool)
	touchedChunks := make(map[*chunk]bool)
	for _, v := range t.patchVersions(math.MaxUint64, t.rel.Rows()) {
		if v.TS > minTS {
			continue
		}
		c, err := t.chunkFor(v.Row)
		if err != nil {
			return err
		}
		i := int(v.Row - c.rows.Begin)
		if c.state == hot {
			for col := 0; col < t.s.Arity(); col++ {
				if err := c.nsm.Set(i, col, v.Rec[col]); err != nil {
					return err
				}
			}
		} else {
			for gi, f := range c.frags {
				for _, col := range c.groups[gi] {
					if err := f.Set(i, col, v.Rec[col]); err != nil {
						return err
					}
				}
				touched[f] = true
			}
			touchedChunks[c] = true
		}
		// The base now carries the settled value; the chain is redundant
		// for every snapshot at or after minTS.
		t.deltas.Forget(v.Row, v.TS)
	}
	for f := range touched {
		t.invalidateFrag(f)
	}
	// Rewritten cold bytes invalidate the side-car compressed images;
	// re-seal so later scans stay in the compressed domain.
	for c := range touchedChunks {
		t.sealChunkCompression(c)
	}
	t.deltas.Prune(minTS)
	return nil
}
