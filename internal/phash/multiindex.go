package phash

import "sort"

// MultiIndex implements multi-index hashing (MIH) over 64-bit perceptual
// hashes; it is the probing regime of Neighbourhoods on large corpora. The
// hash is split into nbBands disjoint bands; by the pigeonhole principle,
// two hashes within Hamming distance r must agree on at least one band
// whenever r < nbBands * (bandBits - adjustment), so candidate lookups only
// need exact band matches followed by full-distance verification.
//
// With the default 4 bands of 16 bits each, any query radius r <= 3 is
// guaranteed exact from direct band lookups alone (some band matches
// exactly); radii 4-7 additionally probe band values at Hamming distance 1,
// and radii 8-11 — covering the pipeline's operating threshold of 8 — probe
// distance 2 as well, keeping every banded query exact. Larger radii fall
// back to a linear scan, so results are exact at every radius.
//
// MultiIndex is not safe for concurrent mutation; concurrent queries after
// construction are safe.
type MultiIndex struct {
	bands    int
	bandBits int
	tables   []map[uint64][]int32 // per-band: band value -> indexes into items
	hashes   []Hash
	ids      []int64
}

// Match is a single radius-query result: a stored hash, its distance from the
// query, and the item IDs that share that hash.
type Match struct {
	Hash     Hash
	Distance int
	IDs      []int64
}

// mihBands is the number of disjoint bands the default multi-index splits
// a hash into; shared with the Neighbourhoods regime choice.
const mihBands = 4

// NewMultiIndex returns an empty multi-index over 4 bands of 16 bits.
func NewMultiIndex() *MultiIndex {
	m := &MultiIndex{
		bands:    mihBands,
		bandBits: Size / mihBands,
		tables:   make([]map[uint64][]int32, mihBands),
	}
	for i := range m.tables {
		m.tables[i] = make(map[uint64][]int32)
	}
	return m
}

// Len returns the number of (hash, id) pairs stored.
func (m *MultiIndex) Len() int { return len(m.hashes) }

// Insert adds a hash and its item identifier to the index.
func (m *MultiIndex) Insert(h Hash, id int64) {
	idx := int32(len(m.hashes))
	m.hashes = append(m.hashes, h)
	m.ids = append(m.ids, id)
	for b := 0; b < m.bands; b++ {
		key := m.band(h, b)
		m.tables[b][key] = append(m.tables[b][key], idx)
	}
}

func (m *MultiIndex) band(h Hash, b int) uint64 {
	shift := uint(b * m.bandBits)
	mask := uint64(1)<<uint(m.bandBits) - 1
	return (uint64(h) >> shift) & mask
}

// Radius returns all stored entries within Hamming distance radius of q,
// one Match per distinct hash, sorted by distance then hash. The search is
// exact at every radius: banded probing handles radius <= 3*bands - 1
// (i.e. 11 with the default 4 bands, comfortably covering the pipeline's
// operating threshold of 8), and a linear scan handles anything larger.
func (m *MultiIndex) Radius(q Hash, radius int) []Match {
	if radius < 0 || len(m.hashes) == 0 {
		return nil
	}
	var out []Match
	// Pigeonhole: if radius errors are spread across bands, at least one
	// band has at most maxFlips = floor(radius/bands) errors, so probing
	// every band value within maxFlips bit flips of the query's band finds
	// every candidate. The probe count grows as C(bandBits, maxFlips), so
	// beyond two flips per band (radius >= 3*bands) the linear scan wins.
	maxFlips := radius / m.bands
	if maxFlips > 2 {
		for i, h := range m.hashes {
			if d := Distance(q, h); d <= radius {
				out = append(out, Match{Hash: h, Distance: d, IDs: []int64{m.ids[i]}})
			}
		}
		return mergeMatches(out)
	}
	seen := make(map[int32]struct{})
	probe := func(b int, key uint64) {
		for _, idx := range m.tables[b][key] {
			if _, dup := seen[idx]; dup {
				continue
			}
			seen[idx] = struct{}{}
			d := Distance(q, m.hashes[idx])
			if d <= radius {
				out = append(out, Match{Hash: m.hashes[idx], Distance: d, IDs: []int64{m.ids[idx]}})
			}
		}
	}
	for b := 0; b < m.bands; b++ {
		key := m.band(q, b)
		probe(b, key)
		if maxFlips >= 1 {
			for bit1 := 0; bit1 < m.bandBits; bit1++ {
				k1 := key ^ (1 << uint(bit1))
				probe(b, k1)
				if maxFlips >= 2 {
					// All band values at Hamming distance 2, enumerated as
					// ordered flip pairs.
					for bit2 := bit1 + 1; bit2 < m.bandBits; bit2++ {
						probe(b, k1^(1<<uint(bit2)))
					}
				}
			}
		}
	}
	return mergeMatches(out)
}

// mergeMatches merges matches that share the same hash, concatenating IDs,
// and returns them sorted by distance then hash for determinism.
func mergeMatches(in []Match) []Match {
	if len(in) == 0 {
		return nil
	}
	byHash := make(map[Hash]*Match, len(in))
	for _, m := range in {
		if ex, ok := byHash[m.Hash]; ok {
			ex.IDs = append(ex.IDs, m.IDs...)
			continue
		}
		cp := m
		cp.IDs = append([]int64(nil), m.IDs...)
		byHash[m.Hash] = &cp
	}
	out := make([]Match, 0, len(byHash))
	for _, m := range byHash {
		sort.Slice(m.IDs, func(i, j int) bool { return m.IDs[i] < m.IDs[j] })
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}
