package exec

import (
	"fmt"
	"sync"

	"hybridstore/internal/compress"
)

// Host-side compressed-domain execution. Pieces carrying a sealed
// compressed image (Piece.Comp) are split off the raw list and handed
// to the compressed-domain operators of internal/compress; raw pieces
// keep the fused byte kernels. Per-piece partials are computed
// independently — in parallel under MultiThreaded/MorselDriven, capped
// at the policy's worker count — and folded in piece order, which is
// exactly the order the sequential baseline accumulates per-piece
// partial sums in, so single-policy results stay bit-identical to
// decompress-then-scan.

// splitComp partitions pieces into raw and compressed. The raw slice
// aliases the input when nothing is compressed, so the common all-raw
// case allocates nothing.
func splitComp(pieces []Piece) (raw, comp []Piece) {
	split := false
	for i, p := range pieces {
		if p.Comp == nil {
			if split {
				raw = append(raw, p)
			}
			continue
		}
		if !split {
			raw = append(raw, pieces[:i]...)
			split = true
		}
		comp = append(comp, p)
	}
	if !split {
		return pieces, nil
	}
	return raw, comp
}

// compPred bridges an exec predicate to its compress twin (the enums
// share ordering and semantics).
func compPred[T Number](p Pred[T]) compress.Pred[T] {
	return compress.Pred[T]{Op: compress.Op(p.Op), Lo: p.Lo, Hi: p.Hi}
}

// compSumWhere folds SUM/COUNT WHERE p over compressed pieces.
func compSumWhere[T Number](cfg Config, pieces []Piece, p Pred[T]) (T, int64, error) {
	cp := compPred(p)
	return compFold(cfg, pieces, func(c *compress.Column) (T, int64, error) {
		return compress.SumWhere(c, cp)
	})
}

// compFold runs fold over every compressed piece — concurrently, capped
// at the policy's worker count, when it has workers to spare — and adds
// the per-piece (sum, count) partials in piece order regardless of
// scheduling. The first error wins.
func compFold[T Number](cfg Config, pieces []Piece, fold func(c *compress.Column) (T, int64, error)) (T, int64, error) {
	parts := make([]partial[T], len(pieces))
	errs := make([]error, len(pieces))
	run := func(i int) {
		parts[i].sum, parts[i].n, errs[i] = fold(pieces[i].Comp)
	}
	if th := cfg.threads(); th <= 1 || len(pieces) == 1 {
		for i := range pieces {
			run(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		sem := make(chan struct{}, th)
		var wg sync.WaitGroup
		for i := range pieces {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				run(i)
			}(i)
		}
		wg.Wait()
	}
	var sum T
	var n int64
	for i, pt := range parts {
		if errs[i] != nil {
			return 0, 0, fmt.Errorf("%w: %v", ErrBadColumn, errs[i])
		}
		sum += pt.sum
		n += pt.n
	}
	return sum, n, nil
}

// rejectComp guards operators without a compressed path.
func rejectComp(pieces []Piece, what string) error {
	for _, p := range pieces {
		if p.Comp != nil {
			return fmt.Errorf("%w: %s has no compressed-domain path", ErrBadColumn, what)
		}
	}
	return nil
}
