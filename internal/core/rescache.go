package core

import (
	"errors"
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/tx"
	"hybridstore/internal/workload"
)

// Result caching in the reference engine rides one concurrency fact:
// every operation that mutates base fragments — Insert, Merge, Adapt,
// PlaceColumn, EvictColumn, freeze — takes the exclusive table lock,
// while queries and MVCC point updates share the read lock. Under one
// RLock section the fragment-version vector is therefore FROZEN: a
// stamp taken anywhere in the section describes the base state for the
// whole section. The only state that can move under a concurrent RLock
// holder is the delta store, and it moves monotonically — commits only
// add versions; Forget/Prune run inside Merge, which needs the write
// lock. The emptiness test is deltas.Rows() == 0, an O(1) map length:
// every chain in the store holds at least one version, so no dirty row
// means no version at all. So:
//
//   - deltas.Rows() == 0 observed at any point of an RLock section
//     means it was 0 at every earlier point of the section;
//   - checking it AFTER executing a scan proves the scan patched
//     nothing and its answer is a pure function of the stamped base
//     state — safe to publish under that stamp;
//   - checking it BEFORE a lookup proves a stamp-equal cached entry
//     answers the current state (serving it linearizes the request
//     before any commit racing with this section, which is valid — the
//     request held no ordering claim over that commit).
//
// Point reads sharpen both checks to one row (deltas.LatestTS(row),
// equally monotone under RLock) and one chunk's fragments, so an
// insert or merge elsewhere in the table does not invalidate them.

// stampLocked collects the fragment-version vector the chunk walk over
// the given columns folds, in walk order. Caller holds t.mu. ok=false
// when a fragment cannot be resolved (the caller's own walk will
// surface the error; the query just runs uncached).
func (t *Table) stampLocked(cols ...int) (rescache.Stamp, bool) {
	rows := t.rel.Rows()
	st := rescache.Stamp{Rows: rows}
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		for _, col := range cols {
			frag, err := t.fragmentForCol(c, col)
			if err != nil {
				return rescache.Stamp{}, false
			}
			st.Frags = append(st.Frags, rescache.FragVer{ID: frag.ID(), Ver: frag.Version()})
		}
	}
	return st, true
}

// chunkStampLocked stamps just the fragments backing one chunk — the
// precise validity domain of a point read. Caller holds t.mu.
func (t *Table) chunkStampLocked(c *chunk) rescache.Stamp {
	var st rescache.Stamp
	if c.state == hot {
		st.Frags = append(st.Frags, rescache.FragVer{ID: c.nsm.ID(), Ver: c.nsm.Version()})
		return st
	}
	st.Frags = make([]rescache.FragVer, 0, len(c.frags))
	for _, f := range c.frags {
		st.Frags = append(st.Frags, rescache.FragVer{ID: f.ID(), Ver: f.Version()})
	}
	return st
}

// aggCacheKey builds the cache key of an aggregate query, normalizing
// the predicate so semantically identical spellings share the entry.
func (t *Table) aggCacheKey(op rescache.Op, col, keyCol int, p exec.Pred[float64], hasPred bool) rescache.Key {
	k := rescache.Key{Table: t.rel.Name(), Op: op, Col: col, KeyCol: keyCol, HasPred: hasPred}
	if hasPred {
		k.Pred = exec.Normalize(p)
	}
	return k
}

// aggCacheBegin is the shared prologue of every cached aggregate.
// Caller holds t.mu (read side). With the result cache enabled and the
// delta store empty it builds the key and column stamp and reports
// cacheable=true; an unusable query (hot deltas in the snapshot,
// unresolvable fragment) records a Bypass instead. The returned cache
// is nil only when caching is disabled engine-wide.
func (t *Table) aggCacheBegin(op rescache.Op, col, keyCol int, p exec.Pred[float64], hasPred bool) (*rescache.Cache, rescache.Key, rescache.Stamp, bool) {
	cache := t.eng.rescache
	if cache == nil {
		return nil, rescache.Key{}, rescache.Stamp{}, false
	}
	if t.deltas.Rows() == 0 {
		cols := []int{col}
		if op == rescache.OpGroupSum || op == rescache.OpGroupSumWhere {
			cols = []int{keyCol, col}
		}
		if st, ok := t.stampLocked(cols...); ok {
			return cache, t.aggCacheKey(op, col, keyCol, p, hasPred), st, true
		}
	}
	cache.Bypass()
	return cache, rescache.Key{}, rescache.Stamp{}, false
}

// aggCachePut publishes an aggregate result if the RLock section stayed
// delta-free end to end: Rows only grows under the read lock, so 0
// after execution proves the scan patched nothing and its answer is a
// pure function of the stamped base state.
func (t *Table) aggCachePut(cache *rescache.Cache, k rescache.Key, st rescache.Stamp, v rescache.Value, cacheable bool) {
	if cacheable && t.deltas.Rows() == 0 {
		cache.Put(k, st, v)
	}
}

// VersionStamp exposes the stamp protocol to cross-engine tests and
// external caches: the fragment-version vector a scan over cols would
// fold. ok is false when the table is not stampable — an unresolvable
// column, or live MVCC deltas, whose contents a fragment stamp cannot
// describe.
func (t *Table) VersionStamp(cols ...int) (rescache.Stamp, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.deltas.Rows() != 0 {
		return rescache.Stamp{}, false
	}
	return t.stampLocked(cols...)
}

// rowCacheKey builds the cache key of a point read.
func (t *Table) rowCacheKey(row uint64) rescache.Key {
	return rescache.Key{Table: t.rel.Name(), Op: rescache.OpGet, Row: row}
}

// The Cached* methods are the serving layer's pre-admission fast path:
// pure cache consultations that never execute a scan. A hit costs the
// read lock, an O(#fragments) stamp walk and a map probe; anything
// else — cache disabled, hot deltas, invalid column, miss — reports
// false and the caller proceeds to the normal (batched) execution
// path, whose internal cache Lookup records the miss.

// CachedSumFloat64 answers SumFloat64(col) from the cache only.
func (t *Table) CachedSumFloat64(col int) (float64, bool) {
	v, ok := t.cachedAgg(rescache.OpSum, col, 0, exec.Pred[float64]{}, false)
	return v.Sum, ok
}

// CachedSumFloat64Where answers SumFloat64Where(col, p) from the cache
// only. CountWhere shares the entry: Count is the second return.
func (t *Table) CachedSumFloat64Where(col int, p exec.Pred[float64]) (float64, int64, bool) {
	v, ok := t.cachedAgg(rescache.OpSumWhere, col, 0, p, true)
	return v.Sum, v.Count, ok
}

// CachedGroupSumFloat64Where answers GroupSumFloat64Where from the
// cache only.
func (t *Table) CachedGroupSumFloat64Where(keyCol, valCol int, p exec.Pred[float64]) ([]exec.GroupResult, bool) {
	v, ok := t.cachedAgg(rescache.OpGroupSumWhere, valCol, keyCol, p, true)
	return v.Groups, ok
}

// cachedAgg is the shared lookup-only aggregate path.
func (t *Table) cachedAgg(op rescache.Op, col, keyCol int, p exec.Pred[float64], hasPred bool) (rescache.Value, bool) {
	cache := t.eng.rescache
	if cache == nil {
		return rescache.Value{}, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.deltas.Rows() != 0 {
		return rescache.Value{}, false
	}
	cols := []int{col}
	if op == rescache.OpGroupSum || op == rescache.OpGroupSumWhere {
		cols = []int{keyCol, col}
	}
	st, ok := t.stampLocked(cols...)
	if !ok {
		return rescache.Value{}, false
	}
	return cache.Peek(t.aggCacheKey(op, col, keyCol, p, hasPred), st)
}

// CachedGet answers Get(row) from the cache only.
func (t *Table) CachedGet(row uint64) (schema.Record, bool) {
	cache := t.eng.rescache
	if cache == nil {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if row >= t.rel.Rows() || t.deltas.LatestTS(row) != 0 {
		return nil, false
	}
	c, err := t.chunkFor(row)
	if err != nil {
		return nil, false
	}
	v, ok := cache.Peek(t.rowCacheKey(row), t.chunkStampLocked(c))
	if !ok {
		return nil, false
	}
	return v.Rec, true
}

// GetMulti materializes many rows from one snapshot — the storage half
// of the serving layer's gather fan-in. Results are bit-identical to
// len(rowIDs) solo Gets against the same snapshot, but the pass takes
// the lock once and charges device-resident gathers per CHUNK: k rows
// hitting one chunk's device fragments cost one bus transfer of k-fold
// bytes (one fixed transfer latency) instead of k separate transfers.
// Clean rows are served from / published to the result cache per row.
func (t *Table) GetMulti(rowIDs []uint64) ([]schema.Record, error) {
	out := make([]schema.Record, len(rowIDs))
	if len(rowIDs) == 0 {
		return out, nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	reader := t.txm.Begin()
	defer reader.Abort()
	rows := t.rel.Rows()
	cache := t.eng.rescache
	gathers := make(map[*chunk]int64)
	for i, row := range rowIDs {
		if row >= rows {
			return nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, rows)
		}
		t.mon.Observe(workload.Op{Kind: workload.PointRead, Cols: layout.AllCols(t.s)})
		var key rescache.Key
		var st rescache.Stamp
		cacheable := false
		if cache != nil {
			if t.deltas.LatestTS(row) == 0 {
				c, err := t.chunkFor(row)
				if err != nil {
					return nil, err
				}
				key, st = t.rowCacheKey(row), t.chunkStampLocked(c)
				cacheable = true
				if v, ok := cache.Lookup(key, st); ok {
					out[i] = v.Rec
					continue
				}
			} else {
				cache.Bypass()
			}
		}
		if rec, err := reader.Read(t.deltas, row); err == nil {
			out[i] = rec
			continue
		} else if !errors.Is(err, tx.ErrNotFound) {
			return nil, err
		}
		c, err := t.chunkFor(row)
		if err != nil {
			return nil, err
		}
		rec, err := t.recordFromChunk(c, row)
		if err != nil {
			return nil, err
		}
		gathers[c]++
		out[i] = rec
		// Publish only if the row is STILL delta-free: LatestTS is
		// monotone under RLock, so 0 here proves 0 across the whole read.
		if cacheable && t.deltas.LatestTS(row) == 0 {
			cache.Put(key, st, rescache.Value{Rec: rec})
		}
	}
	for c, k := range gathers {
		t.chargeDeviceGather(c, k)
	}
	return out, nil
}
