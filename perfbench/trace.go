package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/server"
)

// span is one timed interval. Spans of one request share Req; Parent
// names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Parent string `json:"parent,omitempty"`
	Lane   int    `json:"lane"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans from the benchmark's side of each layer
// boundary: client requests, the HTTP handler, and the benchmark's own
// Merge, Checkpoint and OpenDir calls. Spans stay in memory until the
// run ends. The ladder replays a request sample through each rung
// after the load stops.
type tracer struct {
	origin time.Time
	seq    atomic.Int64 // request ids, unique across an ingest run's rounds
	mu     sync.Mutex
	client [lanes][]span // per lane, so the lanes need no lock
	spans  []span        // handler and call spans, under mu
	rungs  map[string][]time.Duration
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), rungs: make(map[string][]time.Duration)}
}

func (t *tracer) at(x time.Time) int64 { return x.Sub(t.origin).Nanoseconds() }

// newReq returns a fresh request id for lane; the handler span reads
// the lane back from its high bits.
func (t *tracer) newReq(lane int) int64 { return int64(lane)<<40 | t.seq.Add(1) }

func (t *tracer) clientSpan(lane int, req int64, c class, t0, t1 time.Time) {
	t.client[lane] = append(t.client[lane], span{Name: "client", Req: req, Lane: lane,
		Class: className[c], Start: t.at(t0), End: t.at(t1)})
}

// call records a span around one of the benchmark's direct facade
// calls; lane is -1 outside the lanes.
func (t *tracer) call(name string, lane int, t0, t1 time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: "lane", Lane: lane, Start: t.at(t0), End: t.at(t1)})
	t.mu.Unlock()
}

// wrapper returns the handler wrapper, or nil for an untraced run.
func (t *tracer) wrapper() func(http.Handler) http.Handler {
	if t == nil {
		return nil
	}
	return t.wrap
}

// wrap times the server's handler for each request carrying reqHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		if err != nil {
			return
		}
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: "handler", Req: id, Parent: "client", Lane: int(id >> 40),
			Start: t.at(t0), End: t.at(t1)})
		t.mu.Unlock()
	})
}

// time runs fn once and files its duration under rung.
func (t *tracer) time(rung string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t.rungs[rung] = append(t.rungs[rung], time.Since(t0))
	if err != nil {
		return fmt.Errorf("ladder %s: %w", rung, err)
	}
	return nil
}

func (t *tracer) rung(name string) float64 { return medianDur(t.rungs[name]) }

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, ss := range append(t.client[:], t.spans) {
		for _, s := range ss {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanLayers derives the transport and handler numbers: a request's
// transport self time is its client span minus its handler span.
func (t *tracer) spanLayers(m map[string]float64) {
	handler := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Name == "handler" {
			handler[s.Req] = s.dur()
		}
	}
	var transport []time.Duration
	var byClass [nClasses][]time.Duration
	for _, ss := range t.client {
		for _, s := range ss {
			h, ok := handler[s.Req]
			if !ok {
				continue
			}
			transport = append(transport, s.dur()-h)
			for c := range className {
				if className[c] == s.Class {
					byClass[c] = append(byClass[c], h)
				}
			}
		}
	}
	m["transport.self_p50_us"] = medianDur(transport)
	for c := range byClass {
		m["server.handler_p50_us."+className[c]] = medianDur(byClass[c])
	}
	var merges, ckpts []time.Duration
	for _, s := range t.spans {
		switch s.Name {
		case "merge":
			merges = append(merges, s.dur())
		case "checkpoint":
			ckpts = append(ckpts, s.dur())
		}
	}
	m["core.merge_ms"] = medianDur(merges) / 1e3
	m["wal.checkpoint_ms"] = medianDur(ckpts) / 1e3
}

// ladderSamples is how many seeded requests each rung replays per
// class.
const ladderSamples = 64

// inproc is an in-process session on a server, for the Server.Exec rung.
type inproc struct {
	s    *server.Server
	sid  string
	stmt [nKinds]int
	out  []byte
}

func newInproc(s *server.Server, sp *spec) (*inproc, error) {
	p := &inproc{s: s, sid: s.CreateSession("ladder")}
	for k := kind(0); k < nKinds; k++ {
		if sp.table[k] == "" {
			continue
		}
		col, key := -1, -1
		switch k {
		case kUpdate, kSum:
			col = priceCol
		case kGroup:
			col, key = priceCol, groupCol
		}
		id, err := s.Prepare(p.sid, kindOp[k], sp.table[k], col, key)
		if err != nil {
			return nil, err
		}
		p.stmt[k] = id
	}
	return p, nil
}

func (p *inproc) exec(o op, rowOf func(int64) uint64) error {
	body := appendBody(nil, p.sid, p.stmt[o.kind], o, rowOf)
	var code int
	p.out, code = p.s.Exec(body, p.out[:0])
	if code != 200 {
		return fmt.Errorf("Server.Exec %s: status %d: %s", kindOp[o.kind], code, p.out)
	}
	return nil
}

// ladderFixed replays a seeded sample of the workload's own requests
// after the load stops, at each rung: Server.Exec in process, the
// facade method, the Cached* probe, and the raw exec operator over the
// same rows cut into 256-row fragments. Reads run before writes so the
// write rungs cannot change what the read rungs see.
func (t *tracer) ladderFixed(f *fixture, seed int64) error {
	p, err := newInproc(f.srv, f.sp)
	if err != nil {
		return err
	}
	sample := sampleOps(f.sp, seed, f.rows)
	keys, vals, free, err := rawPieces(f.item)
	if err != nil {
		return err
	}
	defer free()
	tbl := f.item
	for _, o := range sample {
		o := o
		if o.kind.class() == cWrite {
			continue
		}
		if err := t.time("exec."+className[o.kind.class()], func() error { return p.exec(o, nil) }); err != nil {
			return err
		}
		var e1, e2, e3 error
		switch o.kind {
		case kGet:
			e1 = t.time("facade.point", func() error { _, err := tbl.Get(o.row); return err })
			e2 = t.time("probe.point", func() error { tbl.CachedGet(o.row); return nil })
		case kSum:
			pr := cuts[o.cut].pred
			e1 = t.time("facade.sum", func() error { _, _, err := tbl.SumFloat64Where(priceCol, pr); return err })
			e2 = t.time("probe.sum", func() error { tbl.CachedSumFloat64Where(priceCol, pr); return nil })
			e3 = t.time("raw.sum", func() error { _, _, err := exec.SumFloat64Where(exec.Single(), vals, pr); return err })
		case kGroup:
			pr := cuts[o.cut].pred
			e1 = t.time("facade.group", func() error { _, err := tbl.GroupBySumWhere(groupCol, priceCol, pr); return err })
			e2 = t.time("probe.group", func() error { tbl.CachedGroupBySumWhere(groupCol, priceCol, pr); return nil })
			e3 = t.time("raw.group", func() error { _, err := exec.GroupSumFloat64Where(exec.Single(), keys, vals, pr); return err })
		}
		for _, err := range []error{e1, e2, e3} {
			if err != nil {
				return err
			}
		}
	}
	// Write rungs: htap updates rows in place; dashboard appends to its
	// side table under keys no lane used.
	for i, o := range sample {
		if o.kind.class() != cWrite {
			continue
		}
		o := o
		if err := t.time("exec.write", func() error { return p.exec(o, nil) }); err != nil {
			return err
		}
		switch o.kind {
		case kUpdate:
			err = t.time("facade.update", func() error {
				return tbl.Update(o.row, priceCol, hybridstore.FloatValue(o.price))
			})
		case kInsert:
			rec := itemRecord(uint64(1<<40 + i))
			err = t.time("facade.insert", func() error { _, err := f.events.Insert(rec); return err })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sampleOps takes up to ladderSamples ops per kind from a fresh
// generator with the run's seed, so the ladder replays bodies the lanes
// sent. Dashboard inserts move to keys above any lane's.
func sampleOps(sp *spec, seed int64, rows uint64) []op {
	g := newGen(sp, seed, 0, lanes, rows, 1<<41)
	var out []op
	var n [nKinds]int
	for i := 0; i < 100*ladderSamples && len(out) < ladderSamples*4; i++ {
		o := g.next()
		if n[o.kind] < ladderSamples {
			n[o.kind]++
			out = append(out, o)
		}
	}
	return out
}

// rawPieces copies tbl's current rows into a host layout of 256-row
// DSM fragments, the way figures.measureScan builds its layouts, and
// returns the group-key and price column pieces over it.
func rawPieces(tbl *hybridstore.Table) (keys, vals []exec.Piece, free func(), err error) {
	n := tbl.Rows()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	recs, err := tbl.GetMulti(ids)
	if err != nil {
		return nil, nil, nil, err
	}
	l, err := layout.Horizontal(mem.NewAllocator(mem.Host, 0), "ladder", tbl.Schema(), n, 256, layout.DSM)
	if err != nil {
		return nil, nil, nil, err
	}
	frags := l.Fragments()
	for i, rec := range recs {
		if err := frags[i/256].AppendTuplet(rec); err != nil {
			l.Free()
			return nil, nil, nil, err
		}
	}
	if keys, err = exec.ColumnView(l, groupCol, n); err == nil {
		vals, err = exec.ColumnView(l, priceCol, n)
	}
	if err != nil {
		l.Free()
		return nil, nil, nil, err
	}
	return keys, vals, l.Free, nil
}

// ladderIngest replays get_pk, update and insert on the recovered store
// through a fresh in-process server. Updates target acknowledged keys
// after the recovery gate has passed; inserts use keys no lane used.
func (t *tracer) ladderIngest(db *hybridstore.DB, gens []*gen, seed int64) error {
	sp := specs["ingest"]
	p, err := newInproc(server.New(server.Config{DB: db, BatchWindow: server.DefaultBatchWindow}), sp)
	if err != nil {
		return err
	}
	tbl := db.Table("item")
	rowOf := func(pk int64) uint64 { r, _ := tbl.LookupPK(pk); return r }
	g := gens[0]
	for i := 0; i < ladderSamples && i < len(g.pks); i++ {
		pk := g.pks[(i*7919)%len(g.pks)]
		get := op{kind: kGetPK, pk: pk}
		upd := op{kind: kUpdate, pk: pk, price: float64(i%100) + 1.5}
		ins := op{kind: kInsert, pk: 1<<41 + int64(2*i), price: 2.5}
		ins2 := op{kind: kInsert, pk: 1<<41 + int64(2*i+1), price: 2.5}
		rec := itemRecord(uint64(ins2.pk))
		rec[priceCol] = hybridstore.FloatValue(ins2.price)
		steps := []struct {
			rung string
			fn   func() error
		}{
			{"exec.point", func() error { return p.exec(get, rowOf) }},
			{"facade.point", func() error { _, err := tbl.GetByPK(pk); return err }},
			{"probe.point", func() error { tbl.CachedGet(rowOf(pk)); return nil }},
			{"exec.write", func() error { return p.exec(upd, rowOf) }},
			{"facade.update", func() error {
				return tbl.Update(rowOf(pk), priceCol, hybridstore.FloatValue(upd.price+1))
			}},
			{"exec.write", func() error { return p.exec(ins, nil) }},
			{"facade.insert", func() error { _, err := tbl.Insert(rec); return err }},
		}
		for _, s := range steps {
			if err := t.time(s.rung, s.fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// deltas accumulates how far the public metrics registry moved over
// one or more measured intervals.
type deltas struct {
	c                    map[string]float64
	groupSum, groupCount float64 // wal.group_size histogram
}

func (d *deltas) add(a, b hybridstore.MetricsSnapshot) {
	if d.c == nil {
		d.c = make(map[string]float64)
	}
	for n, v := range b.Counters {
		d.c[n] += float64(v - a.Counters[n])
	}
	ga, gb := a.Histograms["wal.group_size"], b.Histograms["wal.group_size"]
	d.groupSum += float64(gb.SumNs - ga.SumNs)
	d.groupCount += float64(gb.Count - ga.Count)
}

func (d *deltas) merge(o *deltas) {
	if o == nil {
		return
	}
	if d.c == nil {
		d.c = make(map[string]float64)
	}
	for n, v := range o.c {
		d.c[n] += v
	}
	d.groupSum += o.groupSum
	d.groupCount += o.groupCount
}

func (d *deltas) d(name string) float64 { return d.c[name] }

// registryLayers derives the counter-based layer metrics of one phase.
func registryLayers(m map[string]float64, c *deltas, ld *load) {
	pointLk := c.d("server.cache.get.lookups") + c.d("server.cache.get_pk.lookups")
	pointHit := c.d("server.cache.get.hits") + c.d("server.cache.get_pk.hits")
	m["server.cache.hit_frac.point"] = frac(pointHit, pointLk)
	m["server.cache.hit_frac.sum"] = frac(c.d("server.cache.sum_where.hits"), c.d("server.cache.sum_where.lookups"))
	m["server.cache.hit_frac.group"] = frac(c.d("server.cache.group_sum_where.hits"), c.d("server.cache.group_sum_where.lookups"))
	flushes := c.d("server.batch.flushes")
	m["server.batch.cohort_mean"] = frac(flushes+c.d("server.batch.joined"), flushes)
	m["server.gather.cohort_mean"] = frac(c.d("server.gather.flushes")+c.d("server.gather.joined"), c.d("server.gather.flushes"))
	lookups := c.d("rescache.lookups")
	m["rescache.hit_frac"] = frac(c.d("rescache.hits"), lookups)
	m["rescache.stale_frac"] = frac(c.d("rescache.stale"), lookups)
	m["rescache.evictions"] = c.d("rescache.evictions")
	m["core.freezes"] = c.d("core.freezes")
	m["exec.zonemap.pruned_frac"] = frac(c.d("exec.zonemap.pruned"), c.d("exec.zonemap.pruned")+c.d("exec.zonemap.scanned"))
	m["device.cache.hit_frac"] = frac(c.d("device.cache.hits"), c.d("device.cache.hits")+c.d("device.cache.misses"))
	m["device.h2d_bytes_per_scan"] = frac(c.d("device.h2d_bytes"), flushes)
	commits, conflicts := c.d("tx.commits"), c.d("tx.conflicts")
	m["tx.commits"] = commits
	m["tx.conflict_frac"] = frac(conflicts, commits+conflicts)
	writes := float64(len(ld.lat[cWrite]))
	m["wal.bytes_per_write"] = frac(c.d("wal.bytes"), writes)
	m["wal.group_size_mean"] = frac(c.groupSum, c.groupCount)
}

// ladderLayers turns the rung medians into self times.
func (t *tracer) ladderLayers(m map[string]float64) {
	for _, c := range className {
		facade := "facade." + c
		if c == "write" {
			facade = "facade.update"
			if len(t.rungs[facade]) == 0 {
				facade = "facade.insert"
			}
		}
		if len(t.rungs["exec."+c]) > 0 {
			m["server.self_us."+c] = t.rung("exec."+c) - t.rung(facade)
		} else {
			m["server.self_us."+c] = 0
		}
	}
	m["rescache.probe_us"] = t.rung("probe.sum")
	if len(t.rungs["probe.sum"]) == 0 {
		m["rescache.probe_us"] = t.rung("probe.point")
	}
	m["core.sum_where_us"] = t.rung("facade.sum")
	m["core.group_us"] = t.rung("facade.group")
	m["core.get_us"] = t.rung("facade.point")
	m["core.update_us"] = t.rung("facade.update")
	m["core.insert_us"] = t.rung("facade.insert")
	m["exec.sum_where_us"] = t.rung("raw.sum")
	m["exec.group_us"] = t.rung("raw.group")
}
