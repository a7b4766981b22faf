package core

import (
	"fmt"

	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// GroupSumFloat64 computes SELECT keyCol, SUM(valCol), COUNT(*) GROUP BY
// keyCol over an MVCC snapshot: the base fragments are aggregated in bulk,
// then the snapshot's visible delta versions are patched into the group
// table (moving a row between groups when its key changed). keyCol must
// be an integer attribute, valCol a float64 one. Device-resident value
// fragments are read through the bus (charged on the simulated clock);
// grouped scans are a host-side operation in this engine.
func (t *Table) GroupSumFloat64(keyCol, valCol int) ([]exec.GroupResult, error) {
	if keyCol < 0 || keyCol >= t.s.Arity() || valCol < 0 || valCol >= t.s.Arity() {
		return nil, fmt.Errorf("%w: cols %d,%d", layout.ErrOutOfRange, keyCol, valCol)
	}
	kk := t.s.Attr(keyCol).Kind
	if kk != schema.Int64 && kk != schema.Int32 {
		return nil, fmt.Errorf("%w: group key %s is %s", exec.ErrBadColumn, t.s.Attr(keyCol).Name, kk)
	}
	if t.s.Attr(valCol).Kind != schema.Float64 {
		return nil, fmt.Errorf("%w: aggregate %s is %s", exec.ErrBadColumn, t.s.Attr(valCol).Name, t.s.Attr(valCol).Kind)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	reader := t.txm.Begin()
	defer reader.Abort()
	t.mon.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{keyCol, valCol}})

	cache, ck, cst, cacheable := t.aggCacheBegin(rescache.OpGroupSum, valCol, keyCol, exec.Pred[float64]{}, false)
	if cacheable {
		if v, ok := cache.Lookup(ck, cst); ok {
			return v.Groups, nil
		}
	}

	rows := t.rel.Rows()
	var keys, vals []exec.Piece
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		kp, devBytes, err := t.pieceFor(c, keyCol)
		if err != nil {
			return nil, err
		}
		vp, devBytes2, err := t.pieceFor(c, valCol)
		if err != nil {
			return nil, err
		}
		if t.env.Clock != nil && devBytes+devBytes2 > 0 {
			t.env.Clock.Advance(t.env.GPU.Profile().TransferNs(devBytes + devBytes2))
		}
		keys = append(keys, kp)
		vals = append(vals, vp)
	}
	groups, err := exec.GroupSumFloat64(t.cfg, keys, vals)
	if err != nil {
		return nil, err
	}
	table := make(map[int64]*exec.GroupResult, len(groups))
	for i := range groups {
		g := groups[i]
		table[g.Key] = &g
	}

	// Patch the snapshot's visible versions: move rows between groups.
	for _, v := range t.patchVersions(reader.SnapshotTS(), rows) {
		baseKeyV, err := t.baseValue(v.Row, keyCol)
		if err != nil {
			return nil, err
		}
		baseValV, err := t.baseValue(v.Row, valCol)
		if err != nil {
			return nil, err
		}
		if g := table[baseKeyV.I]; g != nil {
			g.Sum -= baseValV.F
			g.Count--
		}
		cur := table[v.Rec[keyCol].I]
		if cur == nil {
			cur = &exec.GroupResult{Key: v.Rec[keyCol].I}
			table[v.Rec[keyCol].I] = cur
		}
		cur.Sum += v.Rec[valCol].F
		cur.Count++
	}
	out := make([]exec.GroupResult, 0, len(table))
	for _, g := range table {
		if g.Count > 0 {
			out = append(out, *g)
		}
	}
	exec.SortGroupResults(out)
	t.aggCachePut(cache, ck, cst, rescache.Value{Groups: out}, cacheable)
	return out, nil
}

// GroupSumFloat64Where computes SELECT keyCol, SUM(valCol), COUNT(*)
// WHERE p GROUP BY keyCol over an MVCC snapshot with the fused
// single-pass operator: no selection vector, fragments whose value
// zones exclude p pruned with both columns' bytes saved, compressed
// cold chunks aggregated in the compressed domain. With DeviceCache on,
// cold chunk pairs run the one-launch fused group kernel through the
// fragment cache (group keys stay raw for the kernel); a device refusal
// falls back to the host fused operator and is counted. The MVCC patch
// stays exact under pruning because zones are conservative: a base
// value matching p always lives in an admitted fragment.
func (t *Table) GroupSumFloat64Where(keyCol, valCol int, p exec.Pred[float64]) ([]exec.GroupResult, error) {
	if keyCol < 0 || keyCol >= t.s.Arity() || valCol < 0 || valCol >= t.s.Arity() {
		return nil, fmt.Errorf("%w: cols %d,%d", layout.ErrOutOfRange, keyCol, valCol)
	}
	kk := t.s.Attr(keyCol).Kind
	if kk != schema.Int64 && kk != schema.Int32 {
		return nil, fmt.Errorf("%w: group key %s is %s", exec.ErrBadColumn, t.s.Attr(keyCol).Name, kk)
	}
	if t.s.Attr(valCol).Kind != schema.Float64 {
		return nil, fmt.Errorf("%w: aggregate %s is %s", exec.ErrBadColumn, t.s.Attr(valCol).Name, t.s.Attr(valCol).Kind)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	reader := t.txm.Begin()
	defer reader.Abort()
	t.mon.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{keyCol, valCol}})

	cache, ck, cst, cacheable := t.aggCacheBegin(rescache.OpGroupSumWhere, valCol, keyCol, p, true)
	if cacheable {
		if v, ok := cache.Lookup(ck, cst); ok {
			return v.Groups, nil
		}
	}

	rows := t.rel.Rows()
	_, _, closed := exec.ClosedFloat64(p)
	var hostK, hostV, cacheK, cacheV []exec.Piece
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		kp, devBytes, err := t.wherePieceFor(c, keyCol)
		if err != nil {
			return nil, err
		}
		vp, devBytes2, err := t.wherePieceFor(c, valCol)
		if err != nil {
			return nil, err
		}
		if t.env.Clock != nil && devBytes+devBytes2 > 0 {
			t.env.Clock.Advance(t.env.GPU.Profile().TransferNs(devBytes + devBytes2))
		}
		// Cold pairs ride the device fused group kernel through the
		// fragment cache; the key piece stays raw (the kernel sweeps it
		// alongside the values). Hot chunks stay on the host operator.
		if t.eng.opts.DeviceCache && t.env.Cache != nil && c.state == cold && closed && devBytes+devBytes2 == 0 {
			t.attachCompressed(&vp, c, valCol)
			cacheK = append(cacheK, kp)
			cacheV = append(cacheV, vp)
			continue
		}
		t.attachCompressed(&kp, c, keyCol)
		t.attachCompressed(&vp, c, valCol)
		hostK = append(hostK, kp)
		hostV = append(hostV, vp)
	}
	var devGroups []exec.GroupResult
	if len(cacheV) > 0 {
		ds := t.env.DeviceExec(t.rel.Name())
		var err error
		devGroups, err = ds.GroupSumFloat64Where(keyCol, valCol, cacheK, cacheV, p)
		if err != nil {
			// The device kernel refused the pair shape; the host fused
			// operator handles everything it cannot.
			exec.NoteGroupFusedFallback()
			hostK = append(hostK, cacheK...)
			hostV = append(hostV, cacheV...)
			devGroups = nil
		}
	}
	hostGroups, err := exec.GroupSumFloat64Where(t.cfg, hostK, hostV, p)
	if err != nil {
		return nil, err
	}
	merged := exec.MergeGroupResults(devGroups, hostGroups)

	// Patch the snapshot's visible versions: move matching rows between
	// groups, drop rows whose new value no longer matches, add rows whose
	// new value now does. The patch table materializes lazily — a fully
	// merged table (the common warm serving state) returns the fused
	// result as-is, with no second hash table and no re-sort.
	var table map[int64]*exec.GroupResult
	for _, v := range t.patchVersions(reader.SnapshotTS(), rows) {
		if table == nil {
			table = make(map[int64]*exec.GroupResult, len(merged))
			for i := range merged {
				g := merged[i]
				table[g.Key] = &g
			}
		}
		baseKeyV, err := t.baseValue(v.Row, keyCol)
		if err != nil {
			return nil, err
		}
		baseValV, err := t.baseValue(v.Row, valCol)
		if err != nil {
			return nil, err
		}
		if p.Match(baseValV.F) {
			if g := table[baseKeyV.I]; g != nil {
				g.Sum -= baseValV.F
				g.Count--
			}
		}
		if p.Match(v.Rec[valCol].F) {
			cur := table[v.Rec[keyCol].I]
			if cur == nil {
				cur = &exec.GroupResult{Key: v.Rec[keyCol].I}
				table[v.Rec[keyCol].I] = cur
			}
			cur.Sum += v.Rec[valCol].F
			cur.Count++
		}
	}
	if table == nil {
		t.aggCachePut(cache, ck, cst, rescache.Value{Groups: merged}, cacheable)
		return merged, nil
	}
	out := make([]exec.GroupResult, 0, len(table))
	for _, g := range table {
		if g.Count > 0 {
			out = append(out, *g)
		}
	}
	exec.SortGroupResults(out)
	t.aggCachePut(cache, ck, cst, rescache.Value{Groups: out}, cacheable)
	return out, nil
}

// wherePieceFor builds one zone-carrying column piece for a chunk (the
// fused grouped scan's enriched flavor of pieceFor), reporting
// device-resident bytes for the caller's bus charge.
func (t *Table) wherePieceFor(c *chunk, col int) (exec.Piece, int64, error) {
	frag, err := t.fragmentForCol(c, col)
	if err != nil {
		return exec.Piece{}, 0, err
	}
	v, err := frag.ColVector(col)
	if err != nil {
		return exec.Piece{}, 0, err
	}
	var devBytes int64
	if frag.Space() == t.env.GPU.Allocator().Space() {
		devBytes = int64(v.Len * v.Size)
	}
	return exec.Piece{
		Rows:   layout.RowRange{Begin: c.rows.Begin, End: c.rows.Begin + uint64(v.Len)},
		Vec:    v,
		Zone:   frag.Stats(col),
		FragID: frag.ID(), FragVersion: frag.Version(),
	}, devBytes, nil
}

// pieceFor builds one column piece for a chunk, reporting device-resident
// bytes (which the caller charges to the bus).
func (t *Table) pieceFor(c *chunk, col int) (exec.Piece, int64, error) {
	frag, err := t.fragmentForCol(c, col)
	if err != nil {
		return exec.Piece{}, 0, err
	}
	v, err := frag.ColVector(col)
	if err != nil {
		return exec.Piece{}, 0, err
	}
	var devBytes int64
	if frag.Space() == t.env.GPU.Allocator().Space() {
		devBytes = int64(v.Len * v.Size)
	}
	return exec.Piece{
		Rows: layout.RowRange{Begin: c.rows.Begin, End: c.rows.Begin + uint64(v.Len)},
		Vec:  v,
	}, devBytes, nil
}
