package tx

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"hybridstore/internal/schema"
)

func rec(v int64) schema.Record { return schema.Record{schema.IntValue(v)} }

func mustCommit(t *testing.T, x *Tx) {
	t.Helper()
	if err := x.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	m := NewManager()
	s := NewStore()
	x := m.Begin()
	if err := x.Write(s, 1, rec(10)); err != nil {
		t.Fatal(err)
	}
	got, err := x.Read(s, 1)
	if err != nil || got[0].I != 10 {
		t.Fatalf("own write invisible: %v, %v", got, err)
	}
	mustCommit(t, x)
}

func TestSnapshotIsolationNoDirtyReads(t *testing.T) {
	m := NewManager()
	s := NewStore()
	w := m.Begin()
	w.Write(s, 1, rec(10))
	r := m.Begin()
	if _, err := r.Read(s, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted write visible: %v", err)
	}
	mustCommit(t, w)
	// r began before w committed: still invisible (repeatable snapshot).
	if _, err := r.Read(s, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot moved: %v", err)
	}
	r2 := m.Begin()
	got, err := r2.Read(s, 1)
	if err != nil || got[0].I != 10 {
		t.Fatalf("committed write invisible to later snapshot: %v, %v", got, err)
	}
}

func TestRepeatableReadAcrossConcurrentCommits(t *testing.T) {
	m := NewManager()
	s := NewStore()
	setup := m.Begin()
	setup.Write(s, 1, rec(1))
	mustCommit(t, setup)

	r := m.Begin()
	first, err := r.Read(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := m.Begin()
	w.Write(s, 1, rec(2))
	mustCommit(t, w)
	second, err := r.Read(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].I != second[0].I {
		t.Fatalf("read not repeatable: %v then %v", first, second)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	m := NewManager()
	s := NewStore()
	a := m.Begin()
	b := m.Begin()
	a.Write(s, 7, rec(1))
	b.Write(s, 7, rec(2))
	mustCommit(t, a)
	if err := b.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	r := m.Begin()
	got, err := r.Read(s, 7)
	if err != nil || got[0].I != 1 {
		t.Fatalf("winner's write lost: %v, %v", got, err)
	}
}

func TestDisjointWritesDoNotConflict(t *testing.T) {
	m := NewManager()
	s := NewStore()
	a := m.Begin()
	b := m.Begin()
	a.Write(s, 1, rec(1))
	b.Write(s, 2, rec(2))
	mustCommit(t, a)
	mustCommit(t, b)
}

func TestDelete(t *testing.T) {
	m := NewManager()
	s := NewStore()
	w := m.Begin()
	w.Write(s, 1, rec(1))
	mustCommit(t, w)

	d := m.Begin()
	if err := d.Delete(s, 1); err != nil {
		t.Fatal(err)
	}
	// Own delete is visible.
	if _, err := d.Read(s, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("own delete invisible: %v", err)
	}
	mustCommit(t, d)
	r := m.Begin()
	if _, err := r.Read(s, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted row visible: %v", err)
	}
}

func TestClosedTransaction(t *testing.T) {
	m := NewManager()
	s := NewStore()
	x := m.Begin()
	mustCommit(t, x)
	if _, err := x.Read(s, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after commit: %v", err)
	}
	if err := x.Write(s, 1, rec(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after commit: %v", err)
	}
	if err := x.Delete(s, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after commit: %v", err)
	}
	if err := x.Commit(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Commit: %v", err)
	}
	x.Abort() // no-op on closed
}

func TestAbortDiscardsWrites(t *testing.T) {
	m := NewManager()
	s := NewStore()
	x := m.Begin()
	x.Write(s, 1, rec(1))
	x.Abort()
	r := m.Begin()
	if _, err := r.Read(s, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted write visible: %v", err)
	}
}

func TestWriteBufferOverwrites(t *testing.T) {
	m := NewManager()
	s := NewStore()
	x := m.Begin()
	x.Write(s, 1, rec(1))
	x.Write(s, 1, rec(2))
	if x.Pending() != 1 {
		t.Fatalf("Pending = %d", x.Pending())
	}
	mustCommit(t, x)
	r := m.Begin()
	got, _ := r.Read(s, 1)
	if got[0].I != 2 {
		t.Fatalf("last write lost: %v", got)
	}
}

func TestReadReturnsClone(t *testing.T) {
	m := NewManager()
	s := NewStore()
	x := m.Begin()
	x.Write(s, 1, rec(1))
	mustCommit(t, x)
	r := m.Begin()
	got, _ := r.Read(s, 1)
	got[0] = schema.IntValue(99)
	again, _ := r.Read(s, 1)
	if again[0].I != 1 {
		t.Fatal("Read exposed internal record storage")
	}
}

func TestWriteBuffersClone(t *testing.T) {
	m := NewManager()
	s := NewStore()
	x := m.Begin()
	mine := rec(1)
	x.Write(s, 1, mine)
	mine[0] = schema.IntValue(99)
	got, _ := x.Read(s, 1)
	if got[0].I != 1 {
		t.Fatal("Write aliased caller's record")
	}
}

func TestMultiStoreCommit(t *testing.T) {
	m := NewManager()
	s1, s2 := NewStore(), NewStore()
	x := m.Begin()
	x.Write(s1, 1, rec(1))
	x.Write(s2, 1, rec(2))
	mustCommit(t, x)
	r := m.Begin()
	a, _ := r.Read(s1, 1)
	b, _ := r.Read(s2, 1)
	if a[0].I != 1 || b[0].I != 2 {
		t.Fatalf("multi-store commit: %v, %v", a, b)
	}
}

func TestPrune(t *testing.T) {
	m := NewManager()
	s := NewStore()
	for i := 0; i < 5; i++ {
		x := m.Begin()
		x.Write(s, 1, rec(int64(i)))
		mustCommit(t, x)
	}
	if s.Versions() != 5 {
		t.Fatalf("versions = %d", s.Versions())
	}
	s.Prune(m.MinActiveTS())
	if s.Versions() != 1 {
		t.Fatalf("after prune versions = %d, want 1", s.Versions())
	}
	r := m.Begin()
	got, err := r.Read(s, 1)
	if err != nil || got[0].I != 4 {
		t.Fatalf("newest version lost: %v, %v", got, err)
	}
}

func TestPruneRespectsActiveSnapshots(t *testing.T) {
	m := NewManager()
	s := NewStore()
	w1 := m.Begin()
	w1.Write(s, 1, rec(1))
	mustCommit(t, w1)

	oldReader := m.Begin() // snapshot sees version 1

	w2 := m.Begin()
	w2.Write(s, 1, rec(2))
	mustCommit(t, w2)

	s.Prune(m.MinActiveTS())
	got, err := oldReader.Read(s, 1)
	if err != nil || got[0].I != 1 {
		t.Fatalf("prune destroyed a visible version: %v, %v", got, err)
	}
}

func TestPruneRemovesDeadDeletedRows(t *testing.T) {
	m := NewManager()
	s := NewStore()
	w := m.Begin()
	w.Write(s, 1, rec(1))
	mustCommit(t, w)
	d := m.Begin()
	d.Delete(s, 1)
	mustCommit(t, d)
	s.Prune(m.MinActiveTS())
	if s.Rows() != 0 {
		t.Fatalf("dead deleted row kept: rows = %d", s.Rows())
	}
}

func TestLatestTS(t *testing.T) {
	m := NewManager()
	s := NewStore()
	if s.LatestTS(1) != 0 {
		t.Error("empty row has nonzero LatestTS")
	}
	x := m.Begin()
	x.Write(s, 1, rec(1))
	mustCommit(t, x)
	if s.LatestTS(1) == 0 {
		t.Error("LatestTS not updated")
	}
}

func TestMinActiveTS(t *testing.T) {
	m := NewManager()
	if m.MinActiveTS() != 0 {
		t.Error("fresh manager MinActiveTS != clock")
	}
	a := m.Begin()
	w := m.Begin()
	w.Write(NewStore(), 1, rec(1))
	mustCommit(t, w)
	if m.MinActiveTS() != a.SnapshotTS() {
		t.Errorf("MinActiveTS = %d, want %d", m.MinActiveTS(), a.SnapshotTS())
	}
	a.Abort()
	if m.MinActiveTS() != m.Now() {
		t.Errorf("MinActiveTS after abort = %d, want clock %d", m.MinActiveTS(), m.Now())
	}
}

// Concurrent bank-transfer style test: the sum over all accounts must be
// invariant under concurrent conflicting transactions.
func TestConcurrentTransfersPreserveTotal(t *testing.T) {
	m := NewManager()
	s := NewStore()
	const accounts = 8
	const initial = 100
	setup := m.Begin()
	for i := uint64(0); i < accounts; i++ {
		setup.Write(s, i, rec(initial))
	}
	mustCommit(t, setup)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				x := m.Begin()
				from := uint64((g + i) % accounts)
				to := uint64((g + i + 1) % accounts)
				a, err1 := x.Read(s, from)
				b, err2 := x.Read(s, to)
				if err1 != nil || err2 != nil {
					x.Abort()
					continue
				}
				x.Write(s, from, rec(a[0].I-1))
				x.Write(s, to, rec(b[0].I+1))
				_ = x.Commit() // conflicts abort the whole transfer
			}
		}(g)
	}
	wg.Wait()

	r := m.Begin()
	var total int64
	for i := uint64(0); i < accounts; i++ {
		v, err := r.Read(s, i)
		if err != nil {
			t.Fatal(err)
		}
		total += v[0].I
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d (atomicity violated)", total, accounts*initial)
	}
}

// Property: a reader's view of any row never changes during its lifetime,
// regardless of interleaved committers.
func TestQuickSnapshotStability(t *testing.T) {
	f := func(writes []uint8) bool {
		m := NewManager()
		s := NewStore()
		init := m.Begin()
		for i := uint64(0); i < 4; i++ {
			init.Write(s, i, rec(int64(i)))
		}
		if init.Commit() != nil {
			return false
		}
		reader := m.Begin()
		before := make(map[uint64]int64)
		for i := uint64(0); i < 4; i++ {
			v, err := reader.Read(s, i)
			if err != nil {
				return false
			}
			before[i] = v[0].I
		}
		for _, w := range writes {
			x := m.Begin()
			x.Write(s, uint64(w%4), rec(int64(w)))
			if x.Commit() != nil {
				return false
			}
		}
		for i := uint64(0); i < 4; i++ {
			v, err := reader.Read(s, i)
			if err != nil || v[0].I != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of committed writes and a full prune, each
// surviving row holds exactly one version (the newest).
func TestQuickPruneKeepsNewest(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewManager()
		s := NewStore()
		want := make(map[uint64]int64)
		for _, op := range ops {
			row := uint64(op % 8)
			x := m.Begin()
			x.Write(s, row, rec(int64(op)))
			if x.Commit() != nil {
				return false
			}
			want[row] = int64(op)
		}
		s.Prune(m.MinActiveTS())
		if s.Versions() != len(want) {
			return false
		}
		r := m.Begin()
		for row, v := range want {
			got, err := r.Read(s, row)
			if err != nil || got[0].I != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// VisibleAt is the one snapshot walk of the store: ascending rows
// whatever the install order, the newest version at or before ts when
// older and newer ones exist, nothing for rows whose versions are all
// newer than ts, and delete markers reported as such.
func TestVisibleAtOrderAndSnapshot(t *testing.T) {
	m := NewManager()
	s := NewStore()
	commit := func(row uint64, v int64, del bool) uint64 {
		t.Helper()
		x := m.Begin()
		if del {
			x.Delete(s, row)
		} else {
			x.Write(s, row, rec(v))
		}
		mustCommit(t, x)
		return m.Now()
	}
	if got := s.VisibleAt(m.Now()); len(got) != 0 {
		t.Fatalf("empty store walk = %v", got)
	}
	r := rand.New(rand.NewSource(7))
	rows := r.Perm(64)
	for _, row := range rows {
		commit(uint64(row)*3, int64(row), false)
	}
	snap := m.Now()
	commit(9, 1000, false) // row 9 gains a version newer than snap
	commit(12, 0, true)    // row 12 is deleted after snap
	commit(500, 5, false)  // row 500 exists only after snap
	delTS := commit(15, 0, true)

	got := s.VisibleAt(snap)
	if len(got) != 64 {
		t.Fatalf("walk at snap returned %d rows, want 64", len(got))
	}
	for i, v := range got {
		if v.Row != uint64(i)*3 || v.Deleted || v.Rec[0].I != int64(i) || v.TS > snap {
			t.Fatalf("walk[%d] = %+v, want row %d value %d at ts <= %d", i, v, i*3, i, snap)
		}
	}

	latest := s.VisibleAt(m.Now())
	if len(latest) != 65 {
		t.Fatalf("walk at now returned %d rows, want 65", len(latest))
	}
	byRow := make(map[uint64]Version)
	for i, v := range latest {
		if i > 0 && latest[i-1].Row >= v.Row {
			t.Fatalf("walk not ascending at %d: %d then %d", i, latest[i-1].Row, v.Row)
		}
		byRow[v.Row] = v
	}
	if v := byRow[9]; v.Rec[0].I != 1000 {
		t.Fatalf("row 9 at now = %+v, want the newer version", v)
	}
	if v := byRow[12]; !v.Deleted || v.Rec != nil {
		t.Fatalf("row 12 at now = %+v, want a delete marker", v)
	}
	if v := byRow[15]; !v.Deleted || v.TS != delTS {
		t.Fatalf("row 15 at now = %+v, want a delete marker at %d", v, delTS)
	}
	if v, ok := byRow[500]; !ok || v.Rec[0].I != 5 {
		t.Fatalf("row 500 at now = %+v, %v", v, ok)
	}
}

// Forget removes a chain only while the version the caller folded is
// still its head: a commit that lands after the fold must survive.
func TestForgetKeepsNewerHead(t *testing.T) {
	m := NewManager()
	s := NewStore()
	x := m.Begin()
	x.Write(s, 1, rec(1))
	mustCommit(t, x)
	folded := s.LatestTS(1)
	y := m.Begin()
	y.Write(s, 1, rec(2))
	mustCommit(t, y)

	s.Forget(1, folded)
	got, err := m.Begin().Read(s, 1)
	if err != nil || got[0].I != 2 {
		t.Fatalf("newer commit lost after Forget: %v, %v", got, err)
	}
	s.Forget(1, s.LatestTS(1))
	if s.Rows() != 0 {
		t.Fatalf("Forget of the head kept the chain: rows = %d", s.Rows())
	}
}

func ExampleTx() {
	m := NewManager()
	s := NewStore()
	w := m.Begin()
	w.Write(s, 0, schema.Record{schema.IntValue(42)})
	if err := w.Commit(); err != nil {
		fmt.Println("commit failed:", err)
		return
	}
	r := m.Begin()
	recV, _ := r.Read(s, 0)
	fmt.Println(recV)
	// Output: [42]
}
