package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// patchKeyCol is the item schema's int32 i_im_id column, reused as a
// seven-way group key by patchItem.
const patchKeyCol = 1

// patchItem is workload.Item with a small group key and an
// integer-valued price in [0, 97): integer-valued so every sum below is
// exact in any accumulation order, which makes bit-for-bit comparison
// against a row-order recomputation meaningful.
func patchItem(i uint64) schema.Record {
	rec := workload.Item(i)
	rec[patchKeyCol] = schema.Int32Value(int32((i * 31) % 7))
	rec[workload.ItemPriceCol] = schema.FloatValue(float64((i * 13) % 97))
	return rec
}

// patchModel is the record-by-record oracle: the key and price of every
// row, updated in step with the table.
type patchModel struct {
	key   []int64
	price []float64
}

func (m *patchModel) sumWhere(p exec.Pred[float64]) (float64, int64) {
	var sum float64
	var n int64
	for _, v := range m.price {
		if p.Match(v) {
			sum += v
			n++
		}
	}
	return sum, n
}

func (m *patchModel) groups(p exec.Pred[float64]) []exec.GroupResult {
	table := make(map[int64]*exec.GroupResult)
	for row, v := range m.price {
		if !p.Match(v) {
			continue
		}
		g := table[m.key[row]]
		if g == nil {
			g = &exec.GroupResult{Key: m.key[row]}
			table[m.key[row]] = g
		}
		g.Sum += v
		g.Count++
	}
	out := make([]exec.GroupResult, 0, len(table))
	for _, g := range table {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// checkPatchedAggregates compares every patched aggregate with the
// model, bit for bit.
func checkPatchedAggregates(t *testing.T, tbl *Table, m *patchModel, preds []exec.Pred[float64]) {
	t.Helper()
	all := exec.Gt[float64](-1) // every price is non-negative
	wantSum, _ := m.sumWhere(all)
	if got, err := tbl.SumFloat64(workload.ItemPriceCol); err != nil || got != wantSum {
		t.Fatalf("SumFloat64 = %v, %v; want %v", got, err, wantSum)
	}
	sums, counts, err := tbl.SumFloat64WhereMulti(workload.ItemPriceCol, preds)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range preds {
		ws, wn := m.sumWhere(p)
		s, n, err := tbl.SumFloat64Where(workload.ItemPriceCol, p)
		if err != nil || s != ws || n != wn {
			t.Fatalf("SumFloat64Where(%v) = (%v, %d, %v), want (%v, %d)", p, s, n, err, ws, wn)
		}
		if sums[k] != ws || counts[k] != wn {
			t.Fatalf("SumFloat64WhereMulti[%d](%v) = (%v, %d), want (%v, %d)", k, p, sums[k], counts[k], ws, wn)
		}
		g, err := tbl.GroupSumFloat64Where(patchKeyCol, workload.ItemPriceCol, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.groups(p); fmt.Sprint(g) != fmt.Sprint(want) {
			t.Fatalf("GroupSumFloat64Where(%v) = %v, want %v", p, g, want)
		}
	}
	g, err := tbl.GroupSumFloat64(patchKeyCol, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.groups(all); fmt.Sprint(g) != fmt.Sprint(want) {
		t.Fatalf("GroupSumFloat64 = %v, want %v", g, want)
	}
}

// TestSparseDeltaPatchBitIdentity scatters a few dozen updates over a
// 256Ki-row table — price changes that cross predicate bounds, key
// changes that move rows between groups (and into a new group), repeat
// updates of one row, one multi-row transaction — and checks that every
// aggregate's MVCC patch reproduces the row-by-row answer exactly,
// before and after Merge folds the versions into the base.
func TestSparseDeltaPatchBitIdentity(t *testing.T) {
	const n = 1 << 18
	env := engine.NewEnv()
	e := New(env, Options{ChunkRows: 4096, HotChunks: 2, Compress: true})
	created, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	tbl := created.(*Table)
	defer tbl.Free()
	m := &patchModel{key: make([]int64, n), price: make([]float64, n)}
	for i := uint64(0); i < n; i++ {
		rec := patchItem(i)
		if _, err := tbl.Insert(rec); err != nil {
			t.Fatal(err)
		}
		m.key[i] = rec[patchKeyCol].I
		m.price[i] = rec[workload.ItemPriceCol].F
	}
	preds := []exec.Pred[float64]{
		exec.Between[float64](20, 60),
		exec.Lt[float64](30),
		exec.Gt[float64](400), // only post-update outliers match
		exec.Eq[float64](42),
	}
	checkPatchedAggregates(t, tbl, m, preds)

	r := rand.New(rand.NewSource(11))
	setPrice := func(row uint64, v float64) {
		t.Helper()
		if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(v)); err != nil {
			t.Fatal(err)
		}
		m.price[row] = v
	}
	setKey := func(row uint64, k int32) {
		t.Helper()
		if err := tbl.Update(row, patchKeyCol, schema.Int32Value(k)); err != nil {
			t.Fatal(err)
		}
		m.key[row] = int64(k)
	}
	for i := 0; i < 40; i++ {
		row := uint64(r.Intn(n))
		switch i % 4 {
		case 0: // cross predicate bounds, into the outlier range
			setPrice(row, float64(500+r.Intn(400)))
		case 1: // move between existing groups
			setKey(row, int32(r.Intn(7)))
		case 2: // move into a group no base row has
			setKey(row, 100)
			setPrice(row, float64(r.Intn(97)))
		default: // several versions of one row
			setPrice(row, 42)
			setPrice(row, float64(r.Intn(97)))
		}
	}
	// The hot tail and one multi-row transaction.
	setPrice(n-1, 777)
	x := tbl.Begin()
	for _, row := range []uint64{3, 4096, 70000} {
		if err := x.Update(row, workload.ItemPriceCol, schema.FloatValue(29)); err != nil {
			t.Fatal(err)
		}
		m.price[row] = 29
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	checkPatchedAggregates(t, tbl, m, preds)

	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if p := tbl.PendingVersions(); p != 0 {
		t.Fatalf("pending versions after Merge = %d", p)
	}
	checkPatchedAggregates(t, tbl, m, preds)
}

// TestConcurrentMergeTxnCommit races interactive transactions, which
// commit without the table lock, against a Merge loop. Each writer owns
// one row, so Merge usually has several rows to fold and a commit can
// land between its walk and its forget. Every acknowledged commit must be
// visible to the writer's next Get: a Merge that folded an older version
// must not forget the chain a newer commit just extended.
func TestConcurrentMergeTxnCommit(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 600)
	defer tbl.Free()
	const writers, commits = 5, 3000
	var stop atomic.Bool
	var merger sync.WaitGroup
	merger.Add(1)
	go func() {
		defer merger.Done()
		for !stop.Load() {
			if err := tbl.Merge(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		row := uint64(w)*131 + 7 // one row in each of the four cold chunks and the hot one
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= commits; i++ {
				x := tbl.Begin()
				if err := x.Update(row, workload.ItemPriceCol, schema.FloatValue(float64(i))); err != nil {
					t.Error(err)
					return
				}
				if err := x.Commit(); err != nil {
					t.Error(err)
					return
				}
				rec, err := tbl.Get(row)
				if err != nil {
					t.Error(err)
					return
				}
				if got := rec[workload.ItemPriceCol].F; got != float64(i) {
					t.Errorf("row %d: commit %d acknowledged but Get reads price %v", row, i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	merger.Wait()
}
