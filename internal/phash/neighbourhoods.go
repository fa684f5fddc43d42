package phash

import (
	"context"
	"slices"

	"github.com/memes-pipeline/memes/internal/parallel"
)

// probeCutover is the corpus size above which banded multi-index probing
// beats the brute-force pairwise kernel: a probed query costs a roughly
// fixed number of table lookups (~548 at two flips per band), while the
// kernel pays one popcount per stored hash, so probing wins once the corpus
// is tens of thousands of hashes. The choice only moves cost, never
// results — both regimes are exact. A variable only so the equivalence
// tests can force the probing regime on small corpora.
var probeCutover = 1 << 16

// Neighbourhoods computes, for every input hash, the indexes of all hashes
// within the given Hamming radius of it. It is NeighbourhoodsCtx without
// cancellation.
func Neighbourhoods(hashes []Hash, radius, workers int) [][]int32 {
	neigh, _ := NeighbourhoodsCtx(context.Background(), hashes, radius, workers)
	return neigh
}

// NeighbourhoodsCtx computes, for every input hash, the indexes of all hashes
// within the given Hamming radius of it (always including itself, and any
// duplicates), each list in ascending index order. It is the all-points
// counterpart of MultiIndex.Radius — the paper's GPU pairwise comparison
// step as one batch primitive — and the phase-one engine of DBSCAN.
//
// The scan runs on up to `workers` goroutines (<= 0 means GOMAXPROCS); the
// output is identical for every worker count. Large corpora with a probing-
// friendly radius are served by a multi-index (one banded probe set per
// point); everything else takes a blocked pairwise kernel — exactly the
// work the index's linear fallback would do per query, minus the per-query
// dedup-map and sort overhead. With one worker the kernel exploits
// symmetry and computes each pair once.
//
// Cancellation stops rows from being scheduled and returns (nil, ctx.Err());
// no goroutine outlives the call.
func NeighbourhoodsCtx(ctx context.Context, hashes []Hash, radius, workers int) ([][]int32, error) {
	n := len(hashes)
	neigh := make([][]int32, n)
	if n == 0 || radius < 0 {
		return neigh, ctx.Err()
	}
	w := parallel.Workers(workers)
	if w > n {
		w = n
	}

	if n >= probeCutover && radius/mihBands <= 2 {
		m := NewMultiIndex()
		for i, h := range hashes {
			m.Insert(h, int64(i))
		}
		if err := parallel.ForCtx(ctx, n, w, func(i int) {
			matches := m.Radius(hashes[i], radius)
			count := 0
			for _, match := range matches {
				count += len(match.IDs)
			}
			idxs := make([]int32, 0, count)
			for _, match := range matches {
				for _, id := range match.IDs {
					idxs = append(idxs, int32(id))
				}
			}
			slices.Sort(idxs)
			neigh[i] = idxs
		}); err != nil {
			return nil, err
		}
		return neigh, nil
	}

	if w <= 1 {
		// Symmetric serial kernel: each unordered pair is popcounted once
		// and contributes to both endpoints' lists. Row i's list receives
		// every j < i while those rows run, then i itself, then every
		// j > i in ascending order — ascending overall, matching the
		// parallel kernel bit for bit.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			neigh[i] = append(neigh[i], int32(i))
			hi := hashes[i]
			for j := i + 1; j < n; j++ {
				if Distance(hi, hashes[j]) <= radius {
					neigh[i] = append(neigh[i], int32(j))
					neigh[j] = append(neigh[j], int32(i))
				}
			}
		}
		return neigh, nil
	}

	// Parallel kernel: contiguous row chunks, each scanning all n columns.
	// Per-chunk arenas are sized once and reused across the chunk's rows,
	// with every row's list carved out as a capacity-capped sub-slice, so
	// allocations scale with chunks rather than points.
	chunk := parallel.ChunkSize(n, w)
	numChunks := (n + chunk - 1) / chunk
	if err := parallel.ForCtx(ctx, numChunks, w, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		arena := make([]int32, 0, (hi-lo)*8)
		for i := lo; i < hi; i++ {
			at := len(arena)
			hq := hashes[i]
			for j, h := range hashes {
				if Distance(hq, h) <= radius {
					arena = append(arena, int32(j))
				}
			}
			// A mid-row growth leaves the row contiguous in the new
			// backing array (append copies the pending prefix with it);
			// earlier rows keep pointing into the retired arena.
			neigh[i] = arena[at:len(arena):len(arena)]
		}
	}); err != nil {
		return nil, err
	}
	return neigh, nil
}

// CrossNeighbourhoodsCtx computes, for every probe hash, the indexes of all
// base hashes within the given Hamming radius of it (duplicates included,
// probes never matched against each other), each list in ascending base
// index order. It is the streaming companion of NeighbourhoodsCtx: an ingest
// batch probes the resident corpus without re-scanning resident pairs, so an
// incremental re-cluster pays O(len(base)·len(probes)) instead of the full
// O(n²). The scan is chunked over probes across up to `workers` goroutines
// (<= 0 means GOMAXPROCS); output is identical for every worker count.
//
// Cancellation stops chunks from being scheduled and returns
// (nil, ctx.Err()); no goroutine outlives the call.
func CrossNeighbourhoodsCtx(ctx context.Context, base, probes []Hash, radius, workers int) ([][]int32, error) {
	m := len(probes)
	out := make([][]int32, m)
	if m == 0 || len(base) == 0 || radius < 0 {
		return out, ctx.Err()
	}
	w := parallel.Workers(workers)
	if w > m {
		w = m
	}
	chunk := parallel.ChunkSize(m, w)
	numChunks := (m + chunk - 1) / chunk
	if err := parallel.ForCtx(ctx, numChunks, w, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		arena := make([]int32, 0, (hi-lo)*4)
		for i := lo; i < hi; i++ {
			at := len(arena)
			hq := probes[i]
			for j, h := range base {
				if Distance(hq, h) <= radius {
					arena = append(arena, int32(j))
				}
			}
			// Capacity-capped like the kernel above: rows stay safe to
			// extend by callers merging cross and in-batch lists.
			out[i] = arena[at:len(arena):len(arena)]
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}
