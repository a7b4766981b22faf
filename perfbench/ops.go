package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"hybridstore"
	"hybridstore/internal/schema"
)

// Fixture geometry shared by dashboard and htap.
const (
	fixtureRows = 65536
	groupKeys   = 64 // i_im_id = i % groupKeys
	priceCol    = hybridstore.ItemPriceColumn
	groupCol    = 1
	recordBytes = 28 // item record: 20 B of fields plus the 8 B price
)

// The predicate cuts every analytic request draws from: loadgen's four
// fixed cuts over the item price domain [1, 101).
var cuts = []struct {
	wire string
	pred hybridstore.FloatPred
}{
	{`{"kind":"lt","hi":30}`, hybridstore.LtFloat(30)},
	{`{"kind":"gt","lo":50}`, hybridstore.GtFloat(50)},
	{`{"kind":"between","lo":10,"hi":60}`, hybridstore.BetweenFloat(10, 60)},
	{`{"kind":"between","lo":20,"hi":80}`, hybridstore.BetweenFloat(20, 80)},
}

// kind is one wire operation the benchmark sends.
type kind int

const (
	kInsert kind = iota
	kUpdate
	kGet   // point read by row position
	kGetPK // point read by primary key
	kSum   // sum_where
	kGroup // group_sum_where
	nKinds
)

var kindOp = [nKinds]string{"insert", "update", "get", "get_pk", "sum_where", "group_sum_where"}

// class is the latency class a kind is reported under.
type class int

const (
	cWrite class = iota
	cPoint
	cSum
	cGroup
	nClasses
)

var className = [nClasses]string{"write", "point", "sum", "group"}

func (k kind) class() class {
	switch k {
	case kInsert, kUpdate:
		return cWrite
	case kGet, kGetPK:
		return cPoint
	case kSum:
		return cSum
	}
	return cGroup
}

// spec is one workload's traffic mix and the table each kind targets.
type spec struct {
	name   string
	weight [nKinds]int // percent
	// tail is the quantile client.read_tail_us reports: the highest that
	// holds ten samples beyond it in a traced run's untraced half and
	// that sits inside a mode of the read latency distribution rather
	// than on the edge between two (see README.md).
	tail float64
	// table[k] is the table kind k is prepared against.
	table [nKinds]string
}

var specs = map[string]*spec{
	// Cache path: the item working set fits the result cache, so reads
	// are transport, parsing, cache probes and the gather window. The
	// writes append to a side table, which leaves item's cached answers
	// valid.
	"dashboard": {
		name:   "dashboard",
		weight: [nKinds]int{kInsert: 5, kGet: 30, kSum: 45, kGroup: 20},
		tail:   0.99,
		table:  [nKinds]string{kInsert: "events", kGet: "item", kSum: "item", kGroup: "item"},
	},
	// Scan path: every write makes cached aggregates stale, so each
	// aggregate scans the table and patches MVCC versions.
	"htap": {
		name:   "htap",
		weight: [nKinds]int{kUpdate: 20, kSum: 55, kGroup: 25},
		tail:   0.99,
		// get is prepared for the correctness gate's row sample only.
		table: [nKinds]string{kUpdate: "item", kGet: "item", kSum: "item", kGroup: "item"},
	},
	// Durable write path: WAL append and group flush, MVCC commit,
	// checkpoint and recovery.
	"ingest": {
		name:   "ingest",
		weight: [nKinds]int{kInsert: 60, kUpdate: 30, kGetPK: 10},
		tail:   0.95,
		table:  [nKinds]string{kInsert: "item", kUpdate: "item", kGetPK: "item"},
	},
}

// op is one generated request.
type op struct {
	kind  kind
	row   uint64  // get, and update on a fixed-size table
	pk    int64   // insert, get_pk, and update of an ingested row
	cut   int     // sum, group
	price float64 // insert, update
}

// gen produces one lane's seeded op sequence. Lanes own disjoint keys:
// on htap lane l updates only rows with row%lanes == l, and inserts use
// pk%lanes == l, so each lane's own sequence fixes the final value of
// every key it writes and the gates can model acknowledged state.
type gen struct {
	sp    *spec
	lane  int
	lanes int
	rows  uint64 // fixed-table rows (dashboard, htap)
	r     *rand.Rand
	zipf  *rand.Zipf
	total int

	// Keys this lane has inserted, and the latest price it wrote for
	// each (ingest). The lane issues its next op only after the last
	// was acknowledged, and any failure aborts the run, so at a gate
	// this is exactly the lane's acknowledged state.
	nextPK int64
	pks    []int64
	price  map[int64]float64
}

func newGen(sp *spec, seed int64, lane, lanes int, rows uint64, pkBase int64) *gen {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(lane)*7919 + 1))
	g := &gen{sp: sp, lane: lane, lanes: lanes, rows: rows, r: r,
		nextPK: pkBase + int64(lane), price: make(map[int64]float64)}
	for _, w := range sp.weight {
		g.total += w
	}
	if rows > 1 {
		g.zipf = rand.NewZipf(r, 1.2, 8, rows-1)
	}
	return g
}

func (g *gen) next() op {
	var k kind
	for d := g.r.Intn(g.total); ; k++ {
		if d < g.sp.weight[k] {
			break
		}
		d -= g.sp.weight[k]
	}
	// Without a fixed table (ingest), updates and reads target the
	// lane's own inserted keys.
	own := g.rows == 0
	if (k == kGetPK || (k == kUpdate && own)) && len(g.pks) == 0 {
		k = kInsert // nothing acknowledged yet to read or update
	}
	o := op{kind: k}
	switch k {
	case kInsert:
		o.pk = g.nextPK
		g.nextPK += int64(g.lanes)
		o.price = hybridstore.Item(uint64(o.pk))[priceCol].F
		g.pks = append(g.pks, o.pk)
		g.price[o.pk] = o.price
	case kUpdate:
		if own {
			o.pk = g.pks[g.r.Intn(len(g.pks))]
			// A new price always differs from the old one, so a dropped
			// update is visible to the recovery gate.
			for o.price = randPrice(g.r); o.price == g.price[o.pk]; o.price = randPrice(g.r) {
			}
			g.price[o.pk] = o.price
		} else {
			per := g.rows / uint64(g.lanes)
			o.row = uint64(g.r.Int63n(int64(per)))*uint64(g.lanes) + uint64(g.lane)
			o.price = randPrice(g.r)
		}
	case kGet:
		o.row = g.zipf.Uint64()
	case kGetPK:
		o.pk = g.pks[g.r.Intn(len(g.pks))]
	default:
		o.cut = g.r.Intn(len(cuts))
	}
	return o
}

// randPrice draws from the item price domain [1, 101) in cents.
func randPrice(r *rand.Rand) float64 { return float64(r.Intn(10000))/100 + 1 }

// itemRecord is the fixture's record for key i: the generator's item
// with i_im_id folded into groupKeys groups.
func itemRecord(i uint64) hybridstore.Record {
	rec := hybridstore.Item(i)
	rec[groupCol] = hybridstore.Int32Value(int32(i % groupKeys))
	return rec
}

// appendBody appends the /v1/exec body for o. rowOf resolves an
// ingested key to its row position for updates.
func appendBody(b []byte, sid string, stmt int, o op, rowOf func(int64) uint64) []byte {
	b = append(b, `{"session_id":"`...)
	b = append(b, sid...)
	b = append(b, `","stmt_id":`...)
	b = strconv.AppendInt(b, int64(stmt), 10)
	switch o.kind {
	case kInsert:
		rec := itemRecord(uint64(o.pk))
		rec[priceCol] = hybridstore.FloatValue(o.price)
		b = append(b, `,"record":`...)
		b = appendValues(b, rec)
	case kUpdate:
		row := o.row
		if rowOf != nil {
			row = rowOf(o.pk)
		}
		b = append(b, `,"row":`...)
		b = strconv.AppendUint(b, row, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, o.price, 'g', -1, 64)
	case kGet:
		b = append(b, `,"row":`...)
		b = strconv.AppendUint(b, o.row, 10)
	case kGetPK:
		b = append(b, `,"pk":`...)
		b = strconv.AppendInt(b, o.pk, 10)
	default:
		b = append(b, `,"pred":`...)
		b = append(b, cuts[o.cut].wire...)
	}
	return append(b, '}')
}

// appendValues renders a record as the server renders one: a JSON
// array with shortest-exact floats (the way the server's appendF64
// does) and quoted chars.
func appendValues(b []byte, rec hybridstore.Record) []byte {
	b = append(b, '[')
	for i, v := range rec {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.Kind {
		case schema.Float64:
			b = strconv.AppendFloat(b, v.F, 'g', -1, 64)
		case schema.Char:
			b = append(b, '"')
			b = append(b, v.S...)
			b = append(b, '"')
		default:
			b = strconv.AppendInt(b, v.I, 10)
		}
	}
	return append(b, ']')
}

func renderRecord(rec hybridstore.Record) []byte {
	return append(appendValues([]byte(`{"record":`), rec), '}')
}

func renderSum(sum float64, n int64) []byte {
	return []byte(fmt.Sprintf(`{"sum":%s,"count":%d}`, strconv.FormatFloat(sum, 'g', -1, 64), n))
}

func renderGroups(gs []hybridstore.GroupResult) []byte {
	b := []byte(`{"groups":[`)
	for i, g := range gs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, g.Key, 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, g.Sum, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendInt(b, g.Count, 10)
		b = append(b, ']')
	}
	return append(b, `]}`...)
}
