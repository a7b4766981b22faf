package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore"
)

// mergeEvery is htap's count-based Merge cadence: the lane whose write
// acknowledgement is a multiple of it merges before its next request.
// Counting writes instead of time keeps pending versions bounded by
// the same number on every commit, so a faster commit path cannot buy
// itself slower scans by writing more between merges.
const mergeEvery = 500

// fixture is the served item table dashboard and htap run against.
type fixture struct {
	*target
	sp     *spec
	rows   uint64
	item   *hybridstore.Table
	events *hybridstore.Table // dashboard's side table

	// model is htap's price per row as acknowledged. Lanes update
	// disjoint rows, so each element has one writer.
	model  []float64
	writes atomic.Int64

	// Pending versions found by each traced merge.
	mu      sync.Mutex
	pending []float64
}

// buildFixture loads rows item records with i_im_id folded into
// groupKeys groups, merges, warms the device cache with one scan, and
// serves the table.
func buildFixture(sp *spec, rows uint64, wrap func(http.Handler) http.Handler) (*fixture, error) {
	db := hybridstore.Open(fixtureOptions())
	item, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		return nil, err
	}
	f := &fixture{sp: sp, rows: rows, item: item}
	fail := func(err error) (*fixture, error) {
		f.free()
		return nil, err
	}
	for i := uint64(0); i < rows; i++ {
		if _, err := item.Insert(itemRecord(i)); err != nil {
			return fail(err)
		}
	}
	if err := item.Merge(); err != nil {
		return fail(err)
	}
	if _, _, err := item.SumFloat64Where(priceCol, hybridstore.GtFloat(0)); err != nil {
		return fail(err)
	}
	if sp.table[kInsert] == "events" {
		if f.events, err = db.CreateTable("events", hybridstore.ItemSchema()); err != nil {
			return fail(err)
		}
	}
	if sp.weight[kUpdate] > 0 {
		f.model = make([]float64, rows)
		for i := range f.model {
			f.model[i] = hybridstore.Item(uint64(i))[priceCol].F
		}
	}
	if f.target, err = serve(db, sp, wrap); err != nil {
		return fail(err)
	}
	return f, nil
}

// free stops the front end and releases the tables.
func (f *fixture) free() {
	if f.target != nil {
		f.close()
	}
	f.item.Free()
	if f.events != nil {
		f.events.Free()
	}
}

// expected holds dashboard's exact answers: item never changes there,
// so every served byte is known before the load starts.
type expected struct {
	rec        [][]byte
	sum, group [][]byte
}

func (f *fixture) expected() (*expected, error) {
	e := &expected{rec: make([][]byte, f.rows)}
	for i := range e.rec {
		e.rec[i] = renderRecord(itemRecord(uint64(i)))
	}
	for _, c := range cuts {
		s, n, err := f.item.SumFloat64Where(priceCol, c.pred)
		if err != nil {
			return nil, err
		}
		gs, err := f.item.GroupBySumWhere(groupCol, priceCol, c.pred)
		if err != nil {
			return nil, err
		}
		e.sum = append(e.sum, renderSum(s, n))
		e.group = append(e.group, renderGroups(gs))
	}
	return e, nil
}

// setupFixtures builds n fixtures, timing each, and keeps the last.
// Each build starts from a collected heap, so no build pays for the
// garbage of the one before it.
func setupFixtures(sp *spec, n int, wrap func(http.Handler) http.Handler) (*fixture, []time.Duration, error) {
	var times []time.Duration
	var f *fixture
	for i := 0; i < n; i++ {
		if f != nil {
			f.free()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = buildFixture(sp, fixtureRows, wrap); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return f, times, nil
}

// warmup is how long the lanes run before measuring starts, so the
// point-read cache, the device cache and the Go heap reach their
// steady state first.
const warmup = 3 * time.Second

// drive runs the closed-loop lanes for warmup and then for d measured,
// checking every answer that can be predicted: dashboard's exactly,
// htap's by shape.
func (f *fixture) drive(seed int64, d time.Duration, tr *tracer, exp *expected) (*load, error) {
	ls, err := newLanes(f.target, tr)
	if err != nil {
		return nil, err
	}
	t0 := time.Now().Add(warmup)
	deadline := t0.Add(d)
	err = runLanes(ls, func(l *lane) error {
		g := newGen(f.sp, seed, l.id, lanes, f.rows, 0)
		for now := time.Now(); now.Before(deadline); now = time.Now() {
			l.measure = !now.Before(t0)
			o := g.next()
			resp, err := l.exec(o, nil)
			if err != nil {
				return err
			}
			if err := f.check(o, resp, exp); err != nil {
				return err
			}
			if o.kind == kUpdate {
				f.model[o.row] = o.price
				if f.writes.Add(1)%mergeEvery == 0 {
					if err := f.merge(tr, l.id); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	return collect(ls, time.Since(t0)), err
}

func (f *fixture) check(o op, resp []byte, exp *expected) error {
	var want []byte
	switch o.kind {
	case kInsert:
		return expectPrefix(o, resp, `{"row":`)
	case kUpdate:
		want = []byte(`{"ok":true}`)
	case kGet:
		if exp == nil {
			return expectPrefix(o, resp, `{"record":[`)
		}
		want = exp.rec[o.row]
	case kSum:
		if exp == nil {
			return expectPrefix(o, resp, `{"sum":`)
		}
		want = exp.sum[o.cut]
	case kGroup:
		if exp == nil {
			return expectPrefix(o, resp, `{"groups":[`)
		}
		want = exp.group[o.cut]
	}
	if !bytes.Equal(resp, want) {
		return fmt.Errorf("%s: served %s, want %s", kindOp[o.kind], resp, want)
	}
	return nil
}

// merge folds pending versions; traced runs also record the pending
// count it found and a span around the call.
func (f *fixture) merge(tr *tracer, laneID int) error {
	var pending int
	if tr != nil {
		pending = f.item.Stats().PendingVersions
	}
	t0 := time.Now()
	if err := f.item.Merge(); err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	t1 := time.Now()
	if tr != nil {
		tr.call("merge", laneID, t0, t1)
		f.mu.Lock()
		f.pending = append(f.pending, float64(pending))
		f.mu.Unlock()
	}
	return nil
}
