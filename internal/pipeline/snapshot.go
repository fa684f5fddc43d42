package pipeline

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/dataset"
)

// Snapshot persistence: a BuildResult serialises to one MEMESNAP file so
// the expensive Steps 2-5 build runs once — on a big box, in a batch job —
// and any number of serving processes reconstitute the engine from the
// snapshot without touching the corpus. The file carries the configuration
// echo, the per-community clustering summaries, and every cluster's
// metadata including its medoid hash and annotation (entries referenced by
// name). It deliberately does NOT carry:
//
//   - the Step 6 medoid scan: the loader rebuilds it from the cluster table
//     with the same function Build uses, so there is no index data for a
//     loader to cross-check and no way for a file to serve answers its
//     cluster table does not imply;
//   - the dataset: posts are the traffic, not the artifact — bind one at
//     load time only if the legacy full-corpus Result is needed;
//   - the annotation site's entries: the loader resolves entry names
//     against the site it is given, which keeps snapshots small and makes a
//     site/snapshot mismatch a loud error instead of silent drift.
//
// The layout is described in snapv3.go; a trailing CRC-32 makes truncation
// or corruption fail loudly, and readers reject every version but 3.

// snapshotMagic identifies a snapshot stream; the uint32 that follows is
// the format version.
var snapshotMagic = [8]byte{'M', 'E', 'M', 'E', 'S', 'N', 'A', 'P'}

// LoadBuild reads a snapshot written by Save and reconstitutes a BuildResult
// bound to the given annotation site, rebuilding the Step 6 medoid scan from
// the persisted cluster table — no Steps 2-5 work runs. Annotation entries
// are resolved by name against site; a snapshot whose entries the site does
// not carry fails loudly.
//
// ds may be nil: Associate and Match serve arbitrary posts without it, and
// only the legacy full-corpus Result requires a bound dataset. reconfig, if
// non-nil, may adjust the decoded configuration (worker count) before the
// engine is assembled; changing build-phase thresholds has no effect on the
// already-built clusters and only skews the config echo. progress observes
// a single StageLoad start/completion event pair.
func LoadBuild(r io.Reader, site *annotate.Site, ds *dataset.Dataset, reconfig func(*Config), progress ProgressFunc) (*BuildResult, error) {
	// The layout is random-access, not streaming: slurp it and decode in
	// place. File-based callers use LoadBuildFile, which mmaps instead.
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading snapshot: %w", err)
	}
	return loadBuildV3(data, site, ds, reconfig, progress)
}

// --- delta snapshots ---------------------------------------------------------

// Delta snapshots are the journal of the streaming ingest path: each frame
// records one accepted batch of posts, layered on top of the base MEMESNAP.
// A delta segment file is a sequence of self-contained frames — magic +
// version header, varint-coded payload, CRC-32 trailer per frame — so an
// append that dies mid-frame corrupts only that frame and is rejected loudly
// on replay. FromSeq chains frames: it is the total number of posts
// journaled before the frame, so replay can detect gaps and skip frames
// already folded into a compacted base snapshot.

// deltaMagic identifies a delta frame.
var deltaMagic = [8]byte{'M', 'E', 'M', 'E', 'D', 'E', 'L', 'T'}

// deltaVersion is the current delta frame format version.
const deltaVersion uint32 = 1

// Delta is one ingested batch of posts plus its position in the journal.
type Delta struct {
	// FromSeq is the number of posts journaled before this frame.
	FromSeq uint64
	// Posts are the batch's posts, in ingest order.
	Posts []dataset.Post
}

// SaveDelta appends one self-contained delta frame to w.
func SaveDelta(w io.Writer, d *Delta) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(deltaMagic[:]); err != nil {
		return fmt.Errorf("pipeline: writing delta header: %w", err)
	}
	var verbuf [4]byte
	binary.LittleEndian.PutUint32(verbuf[:], deltaVersion)
	if _, err := bw.Write(verbuf[:]); err != nil {
		return fmt.Errorf("pipeline: writing delta header: %w", err)
	}

	crc := crc32.NewIEEE()
	enc := &snapEncoder{w: io.MultiWriter(bw, crc)}
	enc.uvarint(d.FromSeq)
	enc.uvarint(uint64(len(d.Posts)))
	for i := range d.Posts {
		p := &d.Posts[i]
		enc.varint(p.ID)
		enc.uvarint(uint64(p.Community))
		enc.string(p.Subreddit)
		enc.varint(p.Timestamp.UnixNano())
		enc.bool(p.HasImage)
		enc.uint64(p.Hash)
		enc.varint(int64(p.Score))
		enc.varint(int64(p.TruthMeme))
		enc.varint(int64(p.TruthRoot))
	}
	if enc.err != nil {
		return fmt.Errorf("pipeline: writing delta frame: %w", enc.err)
	}

	var crcbuf [4]byte
	binary.LittleEndian.PutUint32(crcbuf[:], crc.Sum32())
	if _, err := bw.Write(crcbuf[:]); err != nil {
		return fmt.Errorf("pipeline: writing delta checksum: %w", err)
	}
	return bw.Flush()
}

// maxDeltaPosts caps the per-frame pre-allocation so a corrupt count cannot
// trigger a huge allocation before the CRC check rejects the frame.
const maxDeltaPosts = 1 << 16

// ReadDeltas reads every delta frame from r until a clean EOF. A stream that
// ends mid-frame, fails a frame checksum, or names an invalid community is
// rejected with an error; whatever parsed before the bad frame is discarded
// so callers never act on half a journal.
func ReadDeltas(r io.Reader) ([]Delta, error) {
	br := bufio.NewReader(r)
	var out []Delta
	for {
		var header [12]byte
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("pipeline: reading delta frame %d header: %w", len(out), err)
		}
		if [8]byte(header[:8]) != deltaMagic {
			return nil, fmt.Errorf("pipeline: delta frame %d: not a delta stream (bad magic)", len(out))
		}
		if v := binary.LittleEndian.Uint32(header[8:12]); v != deltaVersion {
			return nil, fmt.Errorf("pipeline: delta frame %d: unsupported version %d (supported: %d)", len(out), v, deltaVersion)
		}

		crc := crc32.NewIEEE()
		dec := &snapDecoder{r: br, crc: crc}
		d := Delta{FromSeq: dec.uvarint()}
		n := int(dec.uvarint())
		if dec.err == nil && n > 0 {
			capHint := n
			if capHint > maxDeltaPosts {
				capHint = maxDeltaPosts
			}
			d.Posts = make([]dataset.Post, 0, capHint)
		}
		for i := 0; i < n && dec.err == nil; i++ {
			var p dataset.Post
			p.ID = dec.varint()
			p.Community = dataset.Community(dec.uvarint())
			p.Subreddit = dec.string()
			p.Timestamp = timeFromUnixNano(dec.varint())
			p.HasImage = dec.bool()
			p.Hash = dec.uint64()
			p.Score = int(dec.varint())
			p.TruthMeme = int(dec.varint())
			p.TruthRoot = int(dec.varint())
			d.Posts = append(d.Posts, p)
		}
		if dec.err != nil {
			return nil, fmt.Errorf("pipeline: reading delta frame %d: %w", len(out), dec.err)
		}

		// Verify the frame checksum before validating any of it.
		want := crc.Sum32()
		var crcbuf [4]byte
		if _, err := io.ReadFull(br, crcbuf[:]); err != nil {
			return nil, fmt.Errorf("pipeline: reading delta frame %d checksum: %w", len(out), err)
		}
		if got := binary.LittleEndian.Uint32(crcbuf[:]); got != want {
			return nil, fmt.Errorf("pipeline: delta frame %d checksum mismatch (stored %08x, computed %08x): stream corrupt", len(out), got, want)
		}
		for i := range d.Posts {
			if !d.Posts[i].Community.Valid() {
				return nil, fmt.Errorf("pipeline: delta frame %d post %d names invalid community %d", len(out), i, int(d.Posts[i].Community))
			}
		}
		out = append(out, d)
	}
}

// SpliceDeltas orders frames by journal position and splices their posts
// into one contiguous stream starting at position `from` — typically the
// sequence a compacted base snapshot already folds, or 0 for a plain base.
// Frames fully below `from` are skipped (already folded); overlapping frames
// contribute only their uncovered tail (compaction rewrites the journal
// head, so a crash between the rewrite and the old-segment cleanup leaves
// benign overlaps); a frame starting beyond the covered position is a gap
// and rejects the journal. Returns the spliced posts and the total sequence
// covered.
func SpliceDeltas(frames []Delta, from uint64) ([]dataset.Post, uint64, error) {
	ordered := make([]Delta, len(frames))
	copy(ordered, frames)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].FromSeq < ordered[j].FromSeq })
	covered := from
	var posts []dataset.Post
	for _, fr := range ordered {
		end := fr.FromSeq + uint64(len(fr.Posts))
		if end <= covered {
			continue
		}
		if fr.FromSeq > covered {
			return nil, 0, fmt.Errorf("pipeline: delta journal gap: frame starts at %d but only %d posts are covered", fr.FromSeq, covered)
		}
		posts = append(posts, fr.Posts[covered-fr.FromSeq:]...)
		covered = end
	}
	return posts, covered, nil
}

// timeFromUnixNano reconstructs a delta timestamp in UTC, so a post round-
// tripped through a delta frame compares equal regardless of the local zone.
func timeFromUnixNano(n int64) time.Time { return time.Unix(0, n).UTC() }

// --- minimal codec helpers ---------------------------------------------------

// snapEncoder writes the primitive snapshot vocabulary, latching the first
// error so call sites stay linear.
type snapEncoder struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *snapEncoder) write(p []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(p)
}

func (e *snapEncoder) uvarint(v uint64) { e.write(e.buf[:binary.PutUvarint(e.buf[:], v)]) }
func (e *snapEncoder) varint(v int64)   { e.write(e.buf[:binary.PutVarint(e.buf[:], v)]) }

func (e *snapEncoder) uint64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.write(e.buf[:8])
}

func (e *snapEncoder) float64(v float64) { e.uint64(math.Float64bits(v)) }

func (e *snapEncoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.write([]byte{b})
}

func (e *snapEncoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.write([]byte(s))
}

// snapDecoder mirrors snapEncoder; every read also feeds the CRC so the
// trailing checksum covers exactly the bytes consumed.
type snapDecoder struct {
	r   *bufio.Reader
	crc io.Writer
	err error
}

// maxSnapshotString bounds decoded string lengths so a corrupt length prefix
// cannot trigger a huge allocation before the CRC check is reached.
const maxSnapshotString = 1 << 20

func (d *snapDecoder) readByte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return 0
	}
	d.crc.Write([]byte{b})
	return b
}

func (d *snapDecoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = err
		return
	}
	d.crc.Write(p)
}

func (d *snapDecoder) uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		b := d.readByte()
		if d.err != nil {
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
		if shift >= 64 {
			d.err = errors.New("uvarint overflows 64 bits")
			return 0
		}
	}
}

func (d *snapDecoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *snapDecoder) uint64() uint64 {
	var buf [8]byte
	d.read(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (d *snapDecoder) float64() float64 { return math.Float64frombits(d.uint64()) }

func (d *snapDecoder) bool() bool { return d.readByte() != 0 }

func (d *snapDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxSnapshotString {
		d.err = fmt.Errorf("string length %d exceeds limit", n)
		return ""
	}
	buf := make([]byte, n)
	d.read(buf)
	if d.err != nil {
		return ""
	}
	return string(buf)
}
