package core

import (
	"fmt"

	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/stats"
	"hybridstore/internal/workload"
)

// SumFloat64WhereMulti answers K predicate aggregations over one column
// from a single pass: one lock acquisition, one MVCC snapshot, one walk
// of the chunk list, and one shared host scan for all compatible
// predicates — the core half of the serving layer's shared-scan
// batching. Result k is exactly what SumFloat64Where(col, preds[k])
// would return against the same snapshot:
//
//   - device-resident fragments run the reduction kernel per admitting
//     predicate in chunk order, as the solo scan does;
//   - cold cached fragments ride the device cache per closed predicate
//     (warm images make the K passes bus-free);
//   - host fragments are streamed ONCE through
//     exec.SumFloat64WhereMulti with every predicate folding the piece
//     stream in solo order;
//   - the delta patch walks rows outer / predicates inner, preserving
//     each predicate's ascending-row patch order.
//
// Because all K answers derive from one snapshot taken after every
// batched request arrived, handing result k to requester k is a valid
// linearization of the batch.
//
// The result cache rides the same pass: each predicate is probed
// individually (under the one stamp the shared RLock section freezes),
// hits drop out of the batch, and only the missing predicates pay the
// scan — their answers are published for future repeats. Mixing cached
// and fresh answers is sound because a hit requires stamp equality:
// both were computed over byte-identical base state.
func (t *Table) SumFloat64WhereMulti(col int, preds []exec.Pred[float64]) ([]float64, []int64, error) {
	if col < 0 || col >= t.s.Arity() {
		return nil, nil, fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	if t.s.Attr(col).Kind != schema.Float64 {
		return nil, nil, fmt.Errorf("%w: attribute %s is %s", exec.ErrBadColumn, t.s.Attr(col).Name, t.s.Attr(col).Kind)
	}
	sums := make([]float64, len(preds))
	counts := make([]int64, len(preds))
	if len(preds) == 0 {
		return sums, counts, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	// The monitor sees K logical column scans: the batch changes the
	// execution cost, not the workload the adaptation layer reasons
	// about.
	for range preds {
		t.mon.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{col}})
	}

	cache := t.eng.rescache
	if cache == nil {
		return t.sumWhereMultiLocked(col, preds, sums, counts, identityIdx(len(preds)))
	}
	cacheable := t.deltas.Rows() == 0
	var st rescache.Stamp
	if cacheable {
		st, cacheable = t.stampLocked(col)
	}
	keys := make([]rescache.Key, len(preds))
	var missIdx []int
	var missPreds []exec.Pred[float64]
	for k, p := range preds {
		if !cacheable {
			cache.Bypass()
			missIdx = append(missIdx, k)
			missPreds = append(missPreds, p)
			continue
		}
		keys[k] = t.aggCacheKey(rescache.OpSumWhere, col, 0, p, true)
		if v, ok := cache.Lookup(keys[k], st); ok {
			sums[k], counts[k] = v.Sum, v.Count
			continue
		}
		missIdx = append(missIdx, k)
		missPreds = append(missPreds, p)
	}
	if len(missPreds) == 0 {
		return sums, counts, nil
	}
	if _, _, err := t.sumWhereMultiLocked(col, missPreds, sums, counts, missIdx); err != nil {
		return nil, nil, err
	}
	if cacheable && t.deltas.Rows() == 0 {
		for _, k := range missIdx {
			cache.Put(keys[k], st, rescache.Value{Sum: sums[k], Count: counts[k]})
		}
	}
	return sums, counts, nil
}

// identityIdx returns [0, 1, ..., n-1].
func identityIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// sumWhereMultiLocked runs the shared pass for preds under the caller's
// read lock, scattering result j into sums[outIdx[j]]/counts[outIdx[j]].
// It returns the same slices for the no-cache fast path.
func (t *Table) sumWhereMultiLocked(col int, preds []exec.Pred[float64], outSums []float64, outCounts []int64, outIdx []int) ([]float64, []int64, error) {
	sums := make([]float64, len(preds))
	counts := make([]int64, len(preds))
	reader := t.txm.Begin()
	defer reader.Abort()

	closed := make([]bool, len(preds))
	anyClosed := false
	for k, p := range preds {
		_, _, closed[k] = exec.ClosedFloat64(p)
		anyClosed = anyClosed || closed[k]
	}

	// One walk of the chunk list assembles the piece sets every
	// predicate shares. hostPieces holds all non-resident pieces in
	// chunk order with a per-piece cache-eligibility mark: closed
	// predicates scan the eligible subset on the device, open predicates
	// scan everything on the host — the same split the solo scan makes.
	rows := t.rel.Rows()
	type residentCol struct {
		v    layout.ColVector
		zone *stats.Zone
	}
	var resident []residentCol
	var hostPieces []exec.Piece
	var cacheEligible []bool
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		frag, err := t.fragmentForCol(c, col)
		if err != nil {
			return nil, nil, err
		}
		v, err := frag.ColVector(col)
		if err != nil {
			return nil, nil, err
		}
		if frag.Space() == t.env.GPU.Allocator().Space() {
			resident = append(resident, residentCol{v: v, zone: frag.Stats(col)})
			continue
		}
		piece := exec.Piece{
			Rows:   layout.RowRange{Begin: c.rows.Begin, End: c.rows.Begin + uint64(v.Len)},
			Vec:    v,
			Zone:   frag.Stats(col),
			FragID: frag.ID(), FragVersion: frag.Version(),
		}
		t.attachCompressed(&piece, c, col)
		hostPieces = append(hostPieces, piece)
		cacheEligible = append(cacheEligible, t.eng.opts.DeviceCache && t.env.Cache != nil && c.state == cold)
	}

	// Device-resident fragments: per predicate in chunk order, zone
	// decision before the launch, exactly the solo path.
	for k, p := range preds {
		for _, rc := range resident {
			bytes := int64(rc.v.Len) * int64(rc.v.Size)
			if !exec.ZoneAdmitsFloat64(rc.zone, p) {
				exec.NoteZoneDecision(false, bytes)
				continue
			}
			exec.NoteZoneDecision(true, bytes)
			lo, hi, ok := exec.ClosedFloat64(p)
			if !ok {
				continue
			}
			dv := device.Vec{Data: rc.v.Data, Base: rc.v.Base, Stride: rc.v.Stride, Size: rc.v.Size, Len: rc.v.Len}
			cfg := device.DefaultReduceConfig()
			if rc.v.Len < cfg.Blocks*2 {
				cfg = device.LaunchConfig{Blocks: 8, ThreadsPerBlock: 64}
			}
			part, cnt, err := t.env.GPU.ReduceSumFloat64Where(dv, lo, hi, cfg)
			if err != nil {
				return nil, nil, err
			}
			sums[k] += part
			counts[k] += cnt
		}
	}

	// Cold cached fragments per closed predicate: the first predicate
	// warms the image, the rest scan it for zero bus bytes.
	var cachePieces, hostShared []exec.Piece
	for i, piece := range hostPieces {
		if cacheEligible[i] {
			cachePieces = append(cachePieces, piece)
		} else {
			hostShared = append(hostShared, piece)
		}
	}
	if len(cachePieces) > 0 && anyClosed {
		ds := t.env.DeviceExec(t.rel.Name())
		for k, p := range preds {
			if !closed[k] {
				continue
			}
			devSum, devN, err := ds.SumFloat64Where(col, cachePieces, p)
			if err != nil {
				return nil, nil, err
			}
			sums[k] += devSum
			counts[k] += devN
		}
	}

	// Shared host pass: closed predicates over the non-cached pieces,
	// open predicates over everything, each class in one streamed scan.
	var closedPreds, openPreds []exec.Pred[float64]
	var closedIdx, openIdx []int
	for k, p := range preds {
		if closed[k] {
			closedPreds = append(closedPreds, p)
			closedIdx = append(closedIdx, k)
		} else {
			openPreds = append(openPreds, p)
			openIdx = append(openIdx, k)
		}
	}
	scatter := func(idx []int, s []float64, n []int64, err error) error {
		if err != nil {
			return err
		}
		for j, k := range idx {
			sums[k] += s[j]
			counts[k] += n[j]
		}
		return nil
	}
	if len(closedPreds) > 0 {
		hp := hostShared
		if len(cachePieces) == 0 {
			hp = hostPieces // identical set; keep the one walk
		}
		s, n, err := exec.SumFloat64WhereMulti(t.cfg, hp, closedPreds)
		if err := scatter(closedIdx, s, n, err); err != nil {
			return nil, nil, err
		}
	}
	if len(openPreds) > 0 {
		s, n, err := exec.SumFloat64WhereMulti(t.cfg, hostPieces, openPreds)
		if err := scatter(openIdx, s, n, err); err != nil {
			return nil, nil, err
		}
	}

	// Patch the snapshot's visible versions over each predicate's base
	// contribution: rows outer, predicates inner, so every predicate
	// sees the solo scan's ascending-row patch order.
	for _, v := range t.patchVersions(reader.SnapshotTS(), rows) {
		base, err := t.baseValue(v.Row, col)
		if err != nil {
			return nil, nil, err
		}
		for k, p := range preds {
			if p.Match(base.F) {
				sums[k] -= base.F
				counts[k]--
			}
			if p.Match(v.Rec[col].F) {
				sums[k] += v.Rec[col].F
				counts[k]++
			}
		}
	}
	for j := range preds {
		outSums[outIdx[j]] = sums[j]
		outCounts[outIdx[j]] = counts[j]
	}
	return outSums, outCounts, nil
}
