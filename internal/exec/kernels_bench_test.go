package exec

import (
	"encoding/binary"
	"math"
	"testing"

	"hybridstore/internal/layout"
)

// Kernel benchmark for the generic folds: each element type gets its own
// instantiation, so its cost is measured here rather than assumed.
// 64Ki rows in 16 pieces, SingleThreaded, over a dense DSM column
// (stride 8) and an NSM row image (stride 32: key, value and two
// padding attributes per tuple). value(i) = i%10000 (float64: /100 + 1),
// key(i) = i%16.

const (
	kbRows   = 64 << 10
	kbPieces = 16
)

// kbColumns lays out the key and value columns of kbRows rows with the
// given tuple stride: stride 8 gives two dense column images, a wider
// stride one interleaved row image.
func kbColumns(stride int, value func(i int) uint64) (keys, vals []Piece) {
	keyImg, valImg, keyOff, valOff := make([]byte, kbRows*8), make([]byte, kbRows*8), 0, 0
	if stride > 8 {
		keyImg = make([]byte, kbRows*stride)
		valImg, valOff = keyImg, 8
	}
	for i := 0; i < kbRows; i++ {
		binary.LittleEndian.PutUint64(keyImg[i*stride+keyOff:], uint64(i%16))
		binary.LittleEndian.PutUint64(valImg[i*stride+valOff:], value(i))
	}
	per := kbRows / kbPieces
	for b := 0; b < kbRows; b += per {
		rows := layout.RowRange{Begin: uint64(b), End: uint64(b + per)}
		keys = append(keys, Piece{Rows: rows, Vec: layout.ColVector{Data: keyImg, Base: b*stride + keyOff, Stride: stride, Size: 8, Len: per}})
		vals = append(vals, Piece{Rows: rows, Vec: layout.ColVector{Data: valImg, Base: b*stride + valOff, Stride: stride, Size: 8, Len: per}})
	}
	return keys, vals
}

func BenchmarkFusedKernels(b *testing.B) {
	cfg := Single()
	preds := []Pred[float64]{Between(10.0, 60.0), Between(20.0, 80.0), Between(5.0, 15.0), Between(50.0, 90.0)}
	for _, lay := range []struct {
		name   string
		stride int
	}{{"dsm", 8}, {"nsm", 32}} {
		_, fvals := kbColumns(lay.stride, func(i int) uint64 { return math.Float64bits(float64(i%10000)/100 + 1) })
		keys, ivals := kbColumns(lay.stride, func(i int) uint64 { return uint64(i % 10000) })
		run := func(name string, op func() error) {
			b.Run(name+"/"+lay.name, func(b *testing.B) {
				b.SetBytes(kbRows * 8)
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("float64/sum", func() error { _, err := Sum[float64](cfg, fvals); return err })
		run("float64/sumwhere", func() error { _, _, err := SumFloat64Where(cfg, fvals, preds[0]); return err })
		run("float64/groupwhere", func() error { _, err := GroupSumFloat64Where(cfg, keys, fvals, preds[0]); return err })
		run("float64/sharedscan4", func() error { _, _, err := SumFloat64WhereMulti(cfg, fvals, preds); return err })
		run("int64/sum", func() error { _, err := Sum[int64](cfg, ivals); return err })
		run("int64/sumwhere", func() error { _, _, err := SumWhere(cfg, ivals, Between[int64](1000, 6000)); return err })
	}
}
