package phash

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomHashes generates n random hashes with a deterministic seed.
func randomHashes(seed int64, n int) []Hash {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Hash, n)
	for i := range out {
		out[i] = Hash(rng.Uint64())
	}
	return out
}

// perturb flips exactly k random distinct bits of h.
func perturb(rng *rand.Rand, h Hash, k int) Hash {
	perm := rng.Perm(64)
	for i := 0; i < k; i++ {
		h ^= 1 << uint(perm[i])
	}
	return h
}

// bruteRadius is the reference implementation for radius queries.
func bruteRadius(hashes []Hash, ids []int64, q Hash, radius int) map[Hash][]int64 {
	out := make(map[Hash][]int64)
	for i, h := range hashes {
		if Distance(h, q) <= radius {
			out[h] = append(out[h], ids[i])
		}
	}
	return out
}

func TestMultiIndexRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	hashes := randomHashes(55, 400)
	// Add clusters of similar hashes so small radii have matches.
	base := hashes[0]
	for i := 0; i < 50; i++ {
		hashes = append(hashes, perturb(rng, base, rng.Intn(6)))
	}
	ids := make([]int64, len(hashes))
	mi := NewMultiIndex()
	for i, h := range hashes {
		ids[i] = int64(i)
		mi.Insert(h, int64(i))
	}
	if mi.Len() != len(hashes) {
		t.Fatalf("Len = %d, want %d", mi.Len(), len(hashes))
	}
	for _, radius := range []int{0, 1, 2, 4, 7, 8, 12, 20} {
		for trial := 0; trial < 10; trial++ {
			q := hashes[rng.Intn(len(hashes))]
			if trial%2 == 0 {
				q = perturb(rng, q, rng.Intn(4))
			}
			want := bruteRadius(hashes, ids, q, radius)
			got := mi.Radius(q, radius)
			if len(got) != len(want) {
				t.Fatalf("radius %d: got %d distinct hashes, want %d", radius, len(got), len(want))
			}
			for _, m := range got {
				wantIDs := want[m.Hash]
				if len(m.IDs) != len(wantIDs) {
					t.Fatalf("radius %d: ID mismatch for hash %v: got %d want %d",
						radius, m.Hash, len(m.IDs), len(wantIDs))
				}
			}
		}
	}
}

func TestMultiIndexEmptyAndNegativeRadius(t *testing.T) {
	mi := NewMultiIndex()
	if got := mi.Radius(Hash(5), 8); got != nil {
		t.Fatal("empty index should return nil")
	}
	mi.Insert(Hash(5), 1)
	if got := mi.Radius(Hash(5), -1); got != nil {
		t.Fatal("negative radius should return nil")
	}
}

func TestMultiIndexResultsSorted(t *testing.T) {
	mi := NewMultiIndex()
	rng := rand.New(rand.NewSource(5))
	base := Hash(rng.Uint64())
	for i := 0; i < 100; i++ {
		mi.Insert(perturb(rng, base, rng.Intn(10)), int64(i))
	}
	got := mi.Radius(base, 64)
	if !sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].Distance != got[j].Distance {
			return got[i].Distance < got[j].Distance
		}
		return got[i].Hash < got[j].Hash
	}) {
		t.Fatal("results are not sorted by distance then hash")
	}
}

// FuzzRadiusEquivalence drives MultiIndex.Radius against the linear scan
// from the fuzzer: for any (seed, query, radius) triple over a corpus shaped
// like the pipeline's hashes — random hashes, tight near-duplicate families
// and exact duplicates carrying several IDs — the banded probe (or its
// large-radius fallback) must return exactly the linear scan's match set,
// one entry per distinct hash at its true distance.
func FuzzRadiusEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(0x55352b0b8d8b5b53), 8)
	f.Add(int64(2), uint64(0), 0)
	f.Add(int64(3), uint64(0xffffffffffffffff), 64)
	f.Fuzz(func(t *testing.T, seed int64, query uint64, radius int) {
		if radius < -1 || radius > 64 {
			radius %= 65
		}
		rng := rand.New(rand.NewSource(seed))
		hashes := randomHashes(seed, 40+int(uint64(seed)%64))
		for fam := 0; fam < 3; fam++ {
			base := hashes[rng.Intn(len(hashes))]
			for i := 0; i < 10; i++ {
				hashes = append(hashes, perturb(rng, base, rng.Intn(6)))
			}
		}
		for i := 0; i < 5; i++ {
			hashes = append(hashes, hashes[rng.Intn(len(hashes))])
		}
		ids := make([]int64, len(hashes))
		mi := NewMultiIndex()
		for i, h := range hashes {
			ids[i] = int64(i)
			mi.Insert(h, ids[i])
		}
		q := Hash(query)
		got := make(map[Hash][]int64)
		for _, m := range mi.Radius(q, radius) {
			if d := Distance(q, m.Hash); m.Distance != d || d > radius {
				t.Fatalf("match %v carries distance %d, true distance %d, radius %d", m.Hash, m.Distance, d, radius)
			}
			if _, dup := got[m.Hash]; dup {
				t.Fatalf("hash %v returned twice", m.Hash)
			}
			got[m.Hash] = m.IDs
		}
		want := bruteRadius(hashes, ids, q, radius)
		if radius < 0 {
			want = map[Hash][]int64{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Radius(%x, %d) diverges from linear scan: got %d hashes, want %d", query, radius, len(got), len(want))
		}
	})
}
