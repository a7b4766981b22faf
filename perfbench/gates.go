package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"hybridstore"
)

// gateRows is how many seeded rows the fixed-table gate reads back.
const gateRows = 256

// gate runs once the lanes have stopped. It replays every cut as
// sum and group, plus a seeded row sample, over HTTP and byte-compares
// each answer with the facade's own answer rendered the way the server
// renders it. On htap it also checks every row's price, and the price
// total, against the benchmark's model of acknowledged updates, which
// catches a lost write that two facade answers would agree on. It
// returns how many answers it checked.
func (f *fixture) gate(seed int64) (int, error) {
	c, err := dial(f.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	checked := 0
	compare := func(what string, k kind, args string, want []byte) error {
		body := fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,%s}`, f.sid, f.stmt[k], args)
		got, err := c.call("/v1/exec", []byte(body))
		if err != nil {
			return fmt.Errorf("gate %s: %w", what, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("gate %s: served %s, direct %s", what, got, want)
		}
		checked++
		return nil
	}
	for _, cut := range cuts {
		s, n, err := f.item.SumFloat64Where(priceCol, cut.pred)
		if err != nil {
			return checked, err
		}
		if err := compare("sum_where "+cut.wire, kSum, `"pred":`+cut.wire, renderSum(s, n)); err != nil {
			return checked, err
		}
		gs, err := f.item.GroupBySumWhere(groupCol, priceCol, cut.pred)
		if err != nil {
			return checked, err
		}
		if err := compare("group_sum_where "+cut.wire, kGroup, `"pred":`+cut.wire, renderGroups(gs)); err != nil {
			return checked, err
		}
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < gateRows; i++ {
		row := uint64(r.Int63n(int64(f.rows)))
		rec, err := f.item.Get(row)
		if err != nil {
			return checked, err
		}
		if err := compare(fmt.Sprintf("get(%d)", row), kGet, fmt.Sprintf(`"row":%d`, row), renderRecord(rec)); err != nil {
			return checked, err
		}
	}
	if f.model == nil {
		return checked, nil
	}
	rows := make([]uint64, f.rows)
	for i := range rows {
		rows[i] = uint64(i)
	}
	recs, err := f.item.GetMulti(rows)
	if err != nil {
		return checked, err
	}
	want := 0.0
	for i, p := range f.model {
		if got := recs[i][priceCol].F; got != p {
			return checked, fmt.Errorf("gate price of row %d: store %v, acknowledged updates give %v", i, got, p)
		}
		want += p
	}
	checked += len(recs)
	got, err := f.item.SumFloat64(priceCol)
	if err != nil {
		return checked, err
	}
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		return checked, fmt.Errorf("gate price total: store %v, acknowledged updates give %v", got, want)
	}
	return checked + 1, nil
}

// gateIngest checks a recovered store: every insert and update a lane
// had acknowledged must read back through GetByPK with its acknowledged
// value. It returns how many keys it checked.
func gateIngest(db *hybridstore.DB, gens []*gen) (int, error) {
	tbl := db.Table("item")
	if tbl == nil {
		return 0, fmt.Errorf("gate: recovered store has no item table")
	}
	checked := 0
	for _, g := range gens {
		for _, pk := range g.pks {
			want := itemRecord(uint64(pk))
			want[priceCol] = hybridstore.FloatValue(g.price[pk])
			got, err := tbl.GetByPK(pk)
			if err != nil {
				return checked, fmt.Errorf("gate: acknowledged pk %d: %w", pk, err)
			}
			if g, w := renderRecord(got), renderRecord(want); !bytes.Equal(g, w) {
				return checked, fmt.Errorf("gate: pk %d recovered %s, acknowledged %s", pk, g, w)
			}
			checked++
		}
	}
	return checked, nil
}
