package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/faults"
	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
)

// MEMESNAP v3: the flat, offset-based snapshot layout. It is a fixed-width
// header plus a directory of contiguous, 8-aligned sections — fixed-size
// table rows and one string arena addressed by offset+length spans —
// terminated by a CRC-32 trailer over everything before it. A loader
// validates the checksum and the directory, then materialises the cluster
// table in one pass over the fixed-width rows and rebuilds the Step 6
// medoid scan from it.
//
// Layout (all integers little-endian):
//
//	[0:8]    magic "MEMESNAP"
//	[8:12]   version  u32 = 3
//	[12:16]  flags    u32 = 0 (readers reject unknown flags)
//	[16:24]  fileSize u64 (total bytes including the 4-byte CRC trailer)
//	[24:64]  config echo: eps, minPts, annotationThreshold,
//	         associationThreshold, workers — five u64s
//	[64:144] section directory: 5 × (offset u64, count u64)
//	  0 communities   rows of 48 B: community, images, distinctHashes,
//	                  noiseImages, clusters, annotated — six u64s
//	  1 clusters      rows of 48 B: community u32, flags u32 (bit0 racist,
//	                  bit1 political), label i64, medoid u64, images u32,
//	                  distinctHashes u32, matchOff u32, matchN u32,
//	                  repIdx+1 u32 (0 = no representative), pad u32; the
//	                  cluster ID is the row index
//	  2 matches       rows of 24 B: entryIdx u32, matches u32,
//	                  matchFraction f64 bits, meanDistance f64 bits
//	  3 entries       rows of 8 B: nameOff u32, nameLen u32 — the distinct
//	                  annotation entries, resolved against the site once at
//	                  load; match and representative references index here
//	  4 strings       raw UTF-8 arena; count = byte length
//	[fileSize-4:] CRC-32 (IEEE) of bytes [0:fileSize-4]
//
// Sections start 8-aligned (zero padding between them). The bytes are a
// pure function of the build's clusters and configuration echo, so saving
// the same build at any worker count, or a loaded copy of it, emits the
// same file.

// snapshotVersion is the only MEMESNAP version Save writes and the loaders
// accept. Versions 1 and 2 persisted the medoid index (as a strategy name
// or as BK-tree sections) and are rejected by name.
const snapshotVersion uint32 = 3

const (
	v3DirOff       = 64
	v3SectionCount = 5
	v3HeaderSize   = v3DirOff + v3SectionCount*16 // 144
	v3TrailerSize  = 4

	v3SecCommunities = 0
	v3SecClusters    = 1
	v3SecMatches     = 2
	v3SecEntries     = 3
	v3SecStrings     = 4

	v3CommunityRowSize = 48
	v3ClusterRowSize   = 48
	v3MatchRowSize     = 24
	v3EntryRowSize     = 8
)

// v3SectionElemSize maps a section to its element width in bytes.
var v3SectionElemSize = [v3SectionCount]uint64{
	v3CommunityRowSize, v3ClusterRowSize, v3MatchRowSize, v3EntryRowSize, 1,
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// v3Strings interns strings into one arena with first-occurrence
// deduplication, so the arena bytes are a pure function of the intern call
// sequence — a determinism requirement: saving the same build twice (or a
// loaded copy of it) must emit identical files.
type v3Strings struct {
	arena []byte
	spans map[string]uint64 // name → off<<32 | len
}

func (s *v3Strings) intern(v string) (off, n uint32) {
	if v == "" {
		return 0, 0
	}
	if packed, ok := s.spans[v]; ok {
		return uint32(packed >> 32), uint32(packed)
	}
	off = uint32(len(s.arena))
	n = uint32(len(v))
	s.arena = append(s.arena, v...)
	s.spans[v] = uint64(off)<<32 | uint64(n)
	return off, n
}

// Save writes a binary MEMESNAP v3 snapshot of the build to w. The
// snapshot captures everything Steps 2-5 produced; LoadBuild reconstitutes
// an equivalent BuildResult without re-running them. The file is assembled
// in one buffer: sizes are exact once the string arena is built, so the
// single Write is also the only large allocation.
func (b *BuildResult) Save(w io.Writer) error {
	// Intern strings and the distinct-entry table in deterministic order:
	// every cluster's match entries and representative in ID order, each
	// distinct entry getting the next row of the entries section on first
	// occurrence.
	strs := &v3Strings{spans: make(map[string]uint64)}
	entryIdx := make(map[string]uint32)
	var entrySpans []uint64 // nameOff<<32 | nameLen, in first-occurrence order
	internEntry := func(name string) uint32 {
		if i, ok := entryIdx[name]; ok {
			return i
		}
		off, n := strs.intern(name)
		i := uint32(len(entrySpans))
		entrySpans = append(entrySpans, uint64(off)<<32|uint64(n))
		entryIdx[name] = i
		return i
	}
	totalMatches := 0
	for i := range b.Clusters {
		ci := &b.Clusters[i]
		totalMatches += len(ci.Annotation.Matches)
		for _, m := range ci.Annotation.Matches {
			internEntry(m.Entry.Name)
		}
		if ci.Annotation.Representative != nil {
			internEntry(ci.Annotation.Representative.Name)
		}
	}

	comms := b.Communities()

	// Lay the sections out: every offset 8-aligned, directory in file order.
	var offs, counts [v3SectionCount]uint64
	counts[v3SecCommunities] = uint64(len(comms))
	counts[v3SecClusters] = uint64(len(b.Clusters))
	counts[v3SecMatches] = uint64(totalMatches)
	counts[v3SecEntries] = uint64(len(entrySpans))
	counts[v3SecStrings] = uint64(len(strs.arena))
	off := uint64(v3HeaderSize)
	for s := 0; s < v3SectionCount; s++ {
		offs[s] = off
		off = align8(off + counts[s]*v3SectionElemSize[s])
	}
	fileSize := off + v3TrailerSize

	buf := make([]byte, fileSize)
	le := binary.LittleEndian
	copy(buf[0:8], snapshotMagic[:])
	le.PutUint32(buf[8:12], snapshotVersion)
	le.PutUint32(buf[12:16], 0) // flags
	le.PutUint64(buf[16:24], fileSize)
	le.PutUint64(buf[24:32], uint64(b.Config.Clustering.Eps))
	le.PutUint64(buf[32:40], uint64(b.Config.Clustering.MinPts))
	le.PutUint64(buf[40:48], uint64(b.Config.AnnotationThreshold))
	le.PutUint64(buf[48:56], uint64(b.Config.AssociationThreshold))
	le.PutUint64(buf[56:64], uint64(b.Config.Workers))
	for s := 0; s < v3SectionCount; s++ {
		le.PutUint64(buf[v3DirOff+s*16:], offs[s])
		le.PutUint64(buf[v3DirOff+s*16+8:], counts[s])
	}

	// Communities, in the fixed dataset.Communities() order.
	at := offs[v3SecCommunities]
	for _, c := range comms {
		s := b.PerCommunity[c]
		le.PutUint64(buf[at+0:], uint64(c))
		le.PutUint64(buf[at+8:], uint64(s.Images))
		le.PutUint64(buf[at+16:], uint64(s.DistinctHashes))
		le.PutUint64(buf[at+24:], uint64(s.NoiseImages))
		le.PutUint64(buf[at+32:], uint64(s.Clusters))
		le.PutUint64(buf[at+40:], uint64(s.Annotated))
		at += v3CommunityRowSize
	}

	// Clusters and their match rows. The cluster ID is implicit — row i is
	// cluster i, which the saver guarantees because Clusters[i].ID == i is a
	// build invariant.
	at = offs[v3SecClusters]
	mat := offs[v3SecMatches]
	matchIdx := uint32(0)
	for i := range b.Clusters {
		ci := &b.Clusters[i]
		flags := uint32(0)
		if ci.Racist {
			flags |= 1
		}
		if ci.Political {
			flags |= 2
		}
		repIdxPlus1 := uint32(0)
		if ci.Annotation.Representative != nil {
			repIdxPlus1 = internEntry(ci.Annotation.Representative.Name) + 1
		}
		le.PutUint32(buf[at+0:], uint32(ci.Community))
		le.PutUint32(buf[at+4:], flags)
		le.PutUint64(buf[at+8:], uint64(int64(ci.Label)))
		le.PutUint64(buf[at+16:], uint64(ci.MedoidHash))
		le.PutUint32(buf[at+24:], uint32(ci.Images))
		le.PutUint32(buf[at+28:], uint32(ci.DistinctHashes))
		le.PutUint32(buf[at+32:], matchIdx)
		le.PutUint32(buf[at+36:], uint32(len(ci.Annotation.Matches)))
		le.PutUint32(buf[at+40:], repIdxPlus1)
		le.PutUint32(buf[at+44:], 0) // padding
		at += v3ClusterRowSize
		for _, m := range ci.Annotation.Matches {
			le.PutUint32(buf[mat+0:], internEntry(m.Entry.Name))
			le.PutUint32(buf[mat+4:], uint32(m.Matches))
			le.PutUint64(buf[mat+8:], math.Float64bits(m.MatchFraction))
			le.PutUint64(buf[mat+16:], math.Float64bits(m.MeanDistance))
			mat += v3MatchRowSize
			matchIdx++
		}
	}

	at = offs[v3SecEntries]
	for _, packed := range entrySpans {
		le.PutUint32(buf[at:], uint32(packed>>32))
		le.PutUint32(buf[at+4:], uint32(packed))
		at += v3EntryRowSize
	}

	copy(buf[offs[v3SecStrings]:], strs.arena)

	le.PutUint32(buf[fileSize-v3TrailerSize:], crc32.ChecksumIEEE(buf[:fileSize-v3TrailerSize]))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("pipeline: writing snapshot: %w", err)
	}
	return nil
}

// v3View is the validated window onto a v3 file's bytes.
type v3View struct {
	data   []byte
	offs   [v3SectionCount]uint64
	counts [v3SectionCount]uint64
}

func (v *v3View) section(s int) []byte {
	return v.data[v.offs[s] : v.offs[s]+v.counts[s]*v3SectionElemSize[s]]
}

// str resolves an offset+length span into the string arena. The bytes are
// copied into a Go string, so nothing decoded aliases the file bytes.
func (v *v3View) str(off, n uint32) (string, error) {
	if n == 0 {
		return "", nil
	}
	arena := v.section(v3SecStrings)
	if uint64(off)+uint64(n) > uint64(len(arena)) {
		return "", fmt.Errorf("pipeline: snapshot string span [%d,%d) exceeds arena of %d bytes", off, off+n, len(arena))
	}
	return string(arena[off : off+n]), nil
}

// v3Open validates the byte-level envelope of a v3 snapshot — length,
// magic, version, checksum, flags, directory bounds and alignment — and
// returns the section view. Everything semantic comes after.
func v3Open(data []byte) (*v3View, error) {
	// Magic and version come first, so a retired format is named as such
	// however short its file.
	if len(data) < 12 || [8]byte(data[:8]) != snapshotMagic {
		return nil, fmt.Errorf("pipeline: not a snapshot stream (bad magic or %d-byte header)", len(data))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:12]); v != snapshotVersion {
		return nil, fmt.Errorf("pipeline: unsupported snapshot version %d (supported: %d)", v, snapshotVersion)
	}
	if len(data) < v3HeaderSize+v3TrailerSize {
		return nil, fmt.Errorf("pipeline: snapshot truncated at %d bytes: checksum trailer unreachable", len(data))
	}
	fileSize := le.Uint64(data[16:24])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("pipeline: snapshot truncated or oversized: header says %d bytes, got %d (checksum trailer unverifiable)", fileSize, len(data))
	}
	want := le.Uint32(data[fileSize-v3TrailerSize:])
	if got := crc32.ChecksumIEEE(data[:fileSize-v3TrailerSize]); got != want {
		return nil, fmt.Errorf("pipeline: snapshot checksum mismatch (stored %08x, computed %08x): stream corrupt", want, got)
	}
	if flags := le.Uint32(data[12:16]); flags != 0 {
		return nil, fmt.Errorf("pipeline: snapshot carries unsupported flags %#x", flags)
	}
	v := &v3View{data: data}
	limit := fileSize - v3TrailerSize
	prevEnd := uint64(v3HeaderSize)
	for s := 0; s < v3SectionCount; s++ {
		off := le.Uint64(data[v3DirOff+s*16:])
		count := le.Uint64(data[v3DirOff+s*16+8:])
		if off%8 != 0 || off < prevEnd || off > limit {
			return nil, fmt.Errorf("pipeline: snapshot section %d misplaced at offset %d", s, off)
		}
		size := count * v3SectionElemSize[s]
		if count > limit || size > limit-off {
			return nil, fmt.Errorf("pipeline: snapshot section %d (%d elements) exceeds file bounds", s, count)
		}
		v.offs[s], v.counts[s] = off, count
		prevEnd = off + size
	}
	return v, nil
}

// loadBuildV3 reconstitutes a BuildResult from v3 snapshot bytes. data may
// be mmap'd file memory: everything is copied out of it — strings and the
// cluster table are materialised eagerly, and resolving annotation entries
// against the site fails loudly at load time, not first query — so the
// caller may release data as soon as this returns.
func loadBuildV3(data []byte, site *annotate.Site, ds *dataset.Dataset, reconfig func(*Config), progress ProgressFunc) (*BuildResult, error) {
	if site == nil {
		return nil, errors.New("pipeline: nil annotation site")
	}
	start := now()
	v, err := v3Open(data)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian

	b := &BuildResult{
		Site:         site,
		Dataset:      ds,
		PerCommunity: make(map[dataset.Community]CommunityClustering, v.counts[v3SecCommunities]),
		snapVersion:  snapshotVersion,
	}
	b.Config = Config{
		Clustering: cluster.DBSCANConfig{
			Eps:    int(le.Uint64(data[24:32])),
			MinPts: int(le.Uint64(data[32:40])),
		},
		AnnotationThreshold:  int(le.Uint64(data[40:48])),
		AssociationThreshold: int(le.Uint64(data[48:56])),
		Workers:              int(le.Uint64(data[56:64])),
	}

	// Communities.
	comms := v.section(v3SecCommunities)
	for i := uint64(0); i < v.counts[v3SecCommunities]; i++ {
		row := comms[i*v3CommunityRowSize:]
		c := dataset.Community(le.Uint64(row[0:8]))
		if !c.Valid() {
			return nil, fmt.Errorf("pipeline: snapshot names invalid community %d", int(c))
		}
		b.PerCommunity[c] = CommunityClustering{
			Community:      c,
			Images:         int(le.Uint64(row[8:16])),
			DistinctHashes: int(le.Uint64(row[16:24])),
			NoiseImages:    int(le.Uint64(row[24:32])),
			Clusters:       int(le.Uint64(row[32:40])),
			Annotated:      int(le.Uint64(row[40:48])),
		}
	}

	// Distinct annotation entries, resolved against the site exactly once
	// each — every match and representative reference below is then a plain
	// slice index into this table.
	nEntries := v.counts[v3SecEntries]
	entryRows := v.section(v3SecEntries)
	entries := make([]*annotate.Entry, nEntries)
	for i := uint64(0); i < nEntries; i++ {
		row := entryRows[i*v3EntryRowSize:]
		name, err := v.str(le.Uint32(row[0:4]), le.Uint32(row[4:8]))
		if err != nil {
			return nil, err
		}
		e := site.Entry(name)
		if e == nil {
			return nil, fmt.Errorf("pipeline: snapshot references entry %q not on the annotation site (wrong site, or filtered differently than at build time)", name)
		}
		entries[i] = e
	}

	// Clusters: one eager pass over the fixed-width rows. Every cluster's
	// matches subslice one shared arena, so the load cost is two table
	// allocations plus the entry table above.
	nClusters := v.counts[v3SecClusters]
	nMatches := v.counts[v3SecMatches]
	clusterRows := v.section(v3SecClusters)
	matchRows := v.section(v3SecMatches)
	b.Clusters = make([]ClusterInfo, nClusters)
	matchArena := make([]annotate.EntryMatch, nMatches)
	for i := uint64(0); i < nClusters; i++ {
		row := clusterRows[i*v3ClusterRowSize:]
		ci := &b.Clusters[i]
		ci.ID = int(i)
		if ci.Community = dataset.Community(le.Uint32(row[0:4])); !ci.Community.Valid() {
			return nil, fmt.Errorf("pipeline: snapshot cluster %d names invalid community %d", i, int(ci.Community))
		}
		flags := le.Uint32(row[4:8])
		ci.Racist = flags&1 != 0
		ci.Political = flags&2 != 0
		ci.Label = int(int64(le.Uint64(row[8:16])))
		ci.MedoidHash = phash.Hash(le.Uint64(row[16:24]))
		ci.Images = int(le.Uint32(row[24:28]))
		ci.DistinctHashes = int(le.Uint32(row[28:32]))
		mOff := uint64(le.Uint32(row[32:36]))
		mN := uint64(le.Uint32(row[36:40]))
		if mOff+mN > nMatches {
			return nil, fmt.Errorf("pipeline: snapshot cluster %d match span [%d,%d) exceeds %d match rows", i, mOff, mOff+mN, nMatches)
		}
		for j := uint64(0); j < mN; j++ {
			mrow := matchRows[(mOff+j)*v3MatchRowSize:]
			em := &matchArena[mOff+j]
			idx := uint64(le.Uint32(mrow[0:4]))
			if idx >= nEntries {
				return nil, fmt.Errorf("pipeline: snapshot match references entry row %d of %d", idx, nEntries)
			}
			em.Entry = entries[idx]
			em.Matches = int(le.Uint32(mrow[4:8]))
			em.MatchFraction = math.Float64frombits(le.Uint64(mrow[8:16]))
			em.MeanDistance = math.Float64frombits(le.Uint64(mrow[16:24]))
		}
		if mN > 0 {
			ci.Annotation.Matches = matchArena[mOff : mOff+mN : mOff+mN]
		}
		if repIdxPlus1 := uint64(le.Uint32(row[40:44])); repIdxPlus1 > 0 {
			if repIdxPlus1 > nEntries {
				return nil, fmt.Errorf("pipeline: snapshot cluster %d representative references entry row %d of %d", i, repIdxPlus1-1, nEntries)
			}
			ci.Annotation.Representative = entries[repIdxPlus1-1]
		}
	}

	if reconfig != nil {
		reconfig(&b.Config)
	}
	if err := b.Config.Validate(); err != nil {
		return nil, err
	}
	b.progress = progress
	b.buildStats.Workers = parallel.Workers(b.Config.Workers)

	// The load stage: rebuild the Step 6 scan from the cluster table — the
	// only compute on the load path. The single load stage event is the
	// observable proof that Steps 2-5 never ran: a loaded engine's stats
	// carry StageLoad where a built engine's carry StageCluster and
	// StageAnnotate.
	em := emitter{stats: &b.buildStats, progress: progress}
	stageStart := em.start(StageLoad)
	annotated := b.indexMedoids()
	em.done(StageLoad, stageStart, len(b.Clusters))

	fringeImages := 0
	for _, c := range b.Communities() {
		fringeImages += b.PerCommunity[c].Images
	}
	b.buildStats.FringeImages = fringeImages
	b.buildStats.Clusters = len(b.Clusters)
	b.buildStats.AnnotatedClusters = annotated
	b.buildWall = since(start)
	return b, nil
}

// LoadBuildFile reconstitutes a BuildResult from a snapshot file. The file
// is mmap'd read-only and decoded straight from the mapped pages, then
// unmapped: the loaded BuildResult copies what it keeps, so it holds no
// reference to the file. When mmap is unavailable (platform stub, exotic
// filesystem, empty file) the whole file is read in one call instead.
func LoadBuildFile(path string, site *annotate.Site, ds *dataset.Dataset, reconfig func(*Config), progress ProgressFunc) (*BuildResult, error) {
	if err := faults.Inject("pipeline.load"); err != nil {
		return nil, fmt.Errorf("pipeline: loading snapshot: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pipeline: opening snapshot: %w", err)
	}
	defer f.Close()

	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("pipeline: stating snapshot: %w", err)
	}
	size := st.Size()
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("pipeline: snapshot of %d bytes exceeds address space", size)
	}
	if data, closer, err := mmapFile(f, int(size)); err == nil {
		defer closer()
		return loadBuildV3(data, site, ds, reconfig, progress)
	}
	return LoadBuild(f, site, ds, reconfig, progress)
}
