package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNearestRankQuantiles(t *testing.T) {
	var hundred samples
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, time.Duration(i))
	}
	s := hundred.sorted()
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.505, 51}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("q%v of 1..100 = %d, want %d", c.q, got, c.want)
		}
	}
	ten := samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := ten.quantile(0.99); got != 10 {
		t.Errorf("p99 of ten = %d, want 10", got)
	}
	if got := (samples{7}).quantile(0.5); got != 7 {
		t.Errorf("p50 of one = %d, want 7", got)
	}
	if got := tail(1000, 0.99); got != 10 {
		t.Errorf("tail(1000, p99) = %d, want 10", got)
	}
	if got := tail(999, 0.99); got != 9 {
		t.Errorf("tail(999, p99) = %d, want 9", got)
	}
	big := make(samples, 1000)
	for i := range big {
		big[i] = time.Duration(i+1) * time.Microsecond
	}
	if v, err := checkedQuantile("x", big, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990, nil", v, err)
	}
	if _, err := checkedQuantile("x", big[:999], 0.99); err == nil {
		t.Error("p99 over 999 samples (9 beyond) was reported instead of failing")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSeededOpsRepeat(t *testing.T) {
	for name, sp := range specs {
		for lane := 0; lane < lanes; lane++ {
			a := newGen(sp, 7, lane, lanes, fixtureRows, 0)
			b := newGen(sp, 7, lane, lanes, fixtureRows, 0)
			c := newGen(sp, 8, lane, lanes, fixtureRows, 0)
			same := true
			for i := 0; i < 5000; i++ {
				x, y, z := a.next(), b.next(), c.next()
				if x != y {
					t.Fatalf("%s lane %d op %d: %+v vs %+v for equal seeds", name, lane, i, x, y)
				}
				same = same && x == z
				switch {
				case x.kind == kUpdate && name == "htap" && int(x.row)%lanes != lane:
					t.Fatalf("%s lane %d updates row %d owned by another lane", name, lane, x.row)
				case x.kind == kInsert && int(x.pk)%lanes != lane:
					t.Fatalf("%s lane %d inserts pk %d owned by another lane", name, lane, x.pk)
				}
			}
			if same {
				t.Errorf("%s lane %d: seeds 7 and 8 gave the same sequence", name, lane)
			}
		}
	}
}

// flipper corrupts one byte of every /v1/exec answer.
func flipper(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/exec" {
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(flipWriter{w}, r)
	})
}

type flipWriter struct{ http.ResponseWriter }

func (f flipWriter) Write(b []byte) (int, error) {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 1
	return f.ResponseWriter.Write(c)
}

func TestGateCatchesFlippedByte(t *testing.T) {
	for _, wrap := range []func(http.Handler) http.Handler{nil, flipper} {
		f, err := buildFixture(specs["dashboard"], 4096, wrap)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.gate(3)
		f.free()
		if wrap == nil && err != nil {
			t.Fatalf("clean gate failed after %d checks: %v", n, err)
		}
		if wrap != nil && err == nil {
			t.Fatalf("gate passed %d answers with a flipped byte in each", n)
		}
	}
}

func TestGateCatchesLostUpdate(t *testing.T) {
	f, err := buildFixture(specs["htap"], fixtureRows, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.free()
	if _, err := f.drive(5, 300*time.Millisecond, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.gate(5); err != nil {
		t.Fatalf("clean gate: %v", err)
	}
	// An update the model holds as acknowledged but the store never
	// applied: every facade answer still agrees with every served one,
	// and one cent is far below the price total's 1e-6 tolerance.
	f.model[0] += 0.01
	if _, err := f.gate(5); err == nil || !strings.Contains(err.Error(), "price of row 0") {
		t.Fatalf("gate with a lost update: %v, want a row price failure", err)
	}
}

func TestIngestGateCatchesDroppedWrite(t *testing.T) {
	sp := specs["ingest"]
	if _, err := ingestRound(filepath.Join(t.TempDir(), "clean"), sp, 9, 2000, nil, nil); err != nil {
		t.Fatalf("clean round: %v", err)
	}
	// Tearing the last log frame drops the last acknowledged write from
	// what recovery sees.
	tear := func(dir string) error {
		p := filepath.Join(dir, walFile)
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		return os.Truncate(p, fi.Size()-1)
	}
	_, err := ingestRound(filepath.Join(t.TempDir(), "torn"), sp, 9, 2000, nil, tear)
	if err == nil || !strings.Contains(err.Error(), "gate") {
		t.Fatalf("round with a dropped write: %v, want a gate failure", err)
	}
}
