package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"hybridstore"
)

// ingestOps is the operation count of one ingest round, both lanes
// together. A round is a fixed count rather than a fixed time so the
// log tail that recovery replays is the same length on every commit.
const ingestOps = 20000

// Files of a durable store directory.
const (
	walFile        = "wal.log"
	checkpointFile = "checkpoint.db"
)

// ingestOptions is a durable store that writes every group to the log
// file but does not fsync it. With SyncGrouped every write waited on
// the fsync of a shared virtual disk, whose latency doubled and halved
// within seconds, and every ingest metric moved by 15-43 % between runs
// (see README.md). SyncNone keeps the log, group flush, checkpoint and
// recovery paths and leaves out only the disk's own latency.
func ingestOptions() hybridstore.Options {
	o := fixtureOptions()
	o.Durability = hybridstore.Durability{Sync: hybridstore.SyncNone}
	return o
}

// round is one ingest round's record.
type round struct {
	setup     time.Duration
	ld        *load
	recover   time.Duration
	stored    float64 // directory bytes after the run / (live rows × 28 B)
	ckptBytes int64
	tail      int64 // log records appended from checkpoint start to close
	pending   int
	checked   int     // acknowledged keys the recovery gate read back
	regs      *deltas // registry movement while the lanes ran (traced)
}

// openIngest opens an empty durable store in dir and serves it.
func openIngest(dir string, sp *spec, tr *tracer) (*target, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	runtime.GC() // as setupFixtures: start every timed set-up from a collected heap
	t0 := time.Now()
	db, err := hybridstore.OpenDir(dir, ingestOptions())
	if err != nil {
		return nil, 0, err
	}
	if _, err := db.CreateTable("item", hybridstore.ItemSchema()); err != nil {
		db.Close()
		return nil, 0, err
	}
	t, err := serve(db, sp, tr.wrapper())
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	return t, time.Since(t0), nil
}

// ingestRound runs one round in dir: an empty durable store takes ops
// inserts, updates and reads from the lanes, checkpoints once half of
// the round's writes are acknowledged, closes, and is reopened with a
// timed OpenDir. damage, when set, runs on the closed directory before
// the reopen (the self-tests use it to drop an acknowledged write).
// With a tracer the round also runs the layer ladder on the recovered
// store.
func ingestRound(dir string, sp *spec, seed int64, ops int, tr *tracer, damage func(dir string) error) (*round, error) {
	t, setup, err := openIngest(dir, sp, tr)
	if err != nil {
		return nil, err
	}
	rd := &round{setup: setup, ld: &load{}}
	closed := false
	defer func() {
		if !closed {
			t.close()
			t.db.Close()
		}
	}()

	gens := make([]*gen, lanes)
	plans := make([][]op, lanes)
	var writes int64
	for i := range gens {
		gens[i] = newGen(sp, seed, i, lanes, 0, 0)
		for j := 0; j < ops/lanes; j++ {
			o := gens[i].next()
			if o.kind == kGetPK {
				o.price = gens[i].price[o.pk] // the value this read must see
			}
			if o.kind.class() == cWrite {
				writes++
			}
			plans[i] = append(plans[i], o)
		}
	}

	var acked atomic.Int64
	var appendsAtCkpt int64
	ls, err := newLanes(t, tr)
	if err != nil {
		return rd, err
	}
	var before hybridstore.MetricsSnapshot
	if tr != nil {
		before = hybridstore.Metrics()
	}
	t0 := time.Now()
	err = runLanes(ls, func(l *lane) error {
		rows := make(map[int64]uint64)
		rowOf := func(pk int64) uint64 { return rows[pk] }
		for _, o := range plans[l.id] {
			resp, err := l.exec(o, rowOf)
			if err != nil {
				return err
			}
			switch o.kind {
			case kInsert:
				if err := expectPrefix(o, resp, `{"row":`); err != nil {
					return err
				}
				n, err := strconv.ParseUint(string(resp[len(`{"row":`):len(resp)-1]), 10, 64)
				if err != nil {
					return fmt.Errorf("insert: bad answer %s", resp)
				}
				rows[o.pk] = n
			case kUpdate:
				if !bytes.Equal(resp, []byte(`{"ok":true}`)) {
					return fmt.Errorf("update: served %s", resp)
				}
			case kGetPK:
				want := itemRecord(uint64(o.pk))
				want[priceCol] = hybridstore.FloatValue(o.price)
				if w := renderRecord(want); !bytes.Equal(resp, w) {
					return fmt.Errorf("get_pk(%d): served %s, want %s", o.pk, resp, w)
				}
			}
			if o.kind.class() == cWrite && acked.Add(1) == writes/2 {
				if tr != nil {
					appendsAtCkpt = hybridstore.Metrics().Counter("wal.appends")
				}
				c0 := time.Now()
				err := t.db.Checkpoint()
				c1 := time.Now()
				if err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
				if tr != nil {
					tr.call("checkpoint", l.id, c0, c1)
				}
			}
		}
		return nil
	})
	rd.ld = collect(ls, time.Since(t0))
	if tr != nil {
		rd.regs = &deltas{}
		rd.regs.add(before, hybridstore.Metrics())
	}
	if err != nil {
		return rd, err
	}

	t.close()
	if tr != nil {
		rd.pending = t.db.Table("item").Stats().PendingVersions
		rd.tail = hybridstore.Metrics().Counter("wal.appends") - appendsAtCkpt
	}
	closed = true
	if err := t.db.Close(); err != nil {
		return rd, fmt.Errorf("close: %w", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, checkpointFile)); err == nil {
		rd.ckptBytes = fi.Size()
	}
	size, err := dirBytes(dir)
	if err != nil {
		return rd, err
	}
	live := 0
	for _, g := range gens {
		live += len(g.pks)
	}
	rd.stored = float64(size) / float64(live*recordBytes)
	if damage != nil {
		if err := damage(dir); err != nil {
			return rd, err
		}
	}

	r0 := time.Now()
	db, err := hybridstore.OpenDir(dir, ingestOptions())
	r1 := time.Now()
	if err != nil {
		return rd, fmt.Errorf("recovery: %w", err)
	}
	defer db.Close()
	rd.recover = r1.Sub(r0)
	if tr != nil {
		tr.call("opendir", -1, r0, r1)
	}
	if rd.checked, err = gateIngest(db, gens); err != nil {
		return rd, err
	}
	if tr != nil {
		if err := tr.ladderIngest(db, gens, seed); err != nil {
			return rd, err
		}
	}
	return rd, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// runIngest runs one warm-up round, which it checks but does not
// record, and then measured rounds until their load time reaches d. It
// tops the set-up count up to minSetups with set-up-only rounds.
func runIngest(state string, sp *spec, seed int64, d time.Duration, tr *tracer) ([]*round, []time.Duration, error) {
	var rounds []*round
	var setups []time.Duration
	var spent time.Duration
	base := filepath.Join(state, "data", fmt.Sprintf("ingest-%d", os.Getpid()))
	defer os.RemoveAll(base)
	dir := filepath.Join(base, "warm")
	if _, err := ingestRound(dir, sp, seed<<16, ingestOps, nil, nil); err != nil {
		return nil, nil, fmt.Errorf("warm-up round: %w", err)
	}
	for i := 1; spent < d || i == 1; i++ {
		dir = filepath.Join(base, fmt.Sprint(i))
		rd, err := ingestRound(dir, sp, seed<<16+int64(i), ingestOps, tr, nil)
		if rd != nil {
			rounds = append(rounds, rd)
			setups = append(setups, rd.setup)
			spent += rd.ld.wall
		}
		if err != nil {
			return rounds, setups, fmt.Errorf("round %d: %w", i, err)
		}
	}
	for len(setups) < minSetups {
		t, setup, err := openIngest(filepath.Join(base, fmt.Sprint("setup", len(setups))), sp, nil)
		if err != nil {
			return rounds, setups, err
		}
		t.close()
		t.db.Close()
		setups = append(setups, setup)
	}
	return rounds, setups, nil
}
