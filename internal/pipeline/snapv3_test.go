package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/phash"
)

// snapTestBuild builds one small corpus engine for the snapshot suites.
func snapTestBuild(t testing.TB) (*BuildResult, *dataset.Dataset, *annotate.Site) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	b, err := Build(context.Background(), ds, site, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return b, ds, site
}

// TestLoadRejectsRetiredVersions pins the one-format contract: MEMESNAP v1
// and v2 bytes — a bare v1 stream header and a full-length file carrying
// version 2 — fail to load with the named version error, through both the
// in-memory and the file loader.
func TestLoadRejectsRetiredVersions(t *testing.T) {
	b, _, site := snapTestBuild(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	v2 := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(v2[8:12], 2)
	v1 := append(append([]byte(nil), "MEMESNAP\x01\x00\x00\x00"...), 8, 5, 8, 8, 0, 0)
	dir := t.TempDir()
	for _, tc := range []struct {
		version int
		data    []byte
	}{{1, v1}, {2, v2}} {
		want := fmt.Sprintf("unsupported snapshot version %d (supported: 3)", tc.version)
		if _, err := LoadBuild(bytes.NewReader(tc.data), site, nil, nil, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadBuild(v%d) = %v, want %q", tc.version, err, want)
		}
		path := filepath.Join(dir, fmt.Sprintf("v%d.snap", tc.version))
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBuildFile(path, site, nil, nil, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadBuildFile(v%d) = %v, want %q", tc.version, err, want)
		}
	}
}

// TestLoadRejectsInvalidClusterCommunity re-signs a snapshot whose first
// cluster row names a community that does not exist: the checksum holds, so
// only the loader's semantic check stands between the file and a cluster
// the serving and analysis layers cannot place.
func TestLoadRejectsInvalidClusterCommunity(t *testing.T) {
	b, _, site := snapTestBuild(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data := buf.Bytes()
	row := binary.LittleEndian.Uint64(data[v3DirOff+v3SecClusters*16:])
	binary.LittleEndian.PutUint32(data[row:], 99)
	resign(data)
	if _, err := LoadBuild(bytes.NewReader(data), site, nil, nil, nil); err == nil || !strings.Contains(err.Error(), "invalid community 99") {
		t.Fatalf("LoadBuild = %v, want an invalid-community error", err)
	}
}

// TestLoadBuildFile exercises the file loader: the mmap'd path must serve
// output identical to the in-memory loader, and corruption must fail
// exactly as loudly.
func TestLoadBuildFile(t *testing.T) {
	b, ds, site := snapTestBuild(t)
	ctx := context.Background()
	wantAssoc, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	dir := t.TempDir()

	path := filepath.Join(dir, "snap")
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBuildFile(path, site, nil, nil, nil)
	if err != nil {
		t.Fatalf("LoadBuildFile: %v", err)
	}
	assoc, err := loaded.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	if !reflect.DeepEqual(assoc, wantAssoc) {
		t.Error("file-loaded Associate diverges")
	}
	if v := loaded.SnapshotVersion(); v != 3 {
		t.Errorf("SnapshotVersion = %d, want 3", v)
	}
	// Only StageLoad ran.
	stages := loaded.Stats().Stages
	if len(stages) != 1 || stages[0].Name != StageLoad {
		t.Errorf("file load ran stages %v, want [load]", stages)
	}

	// Corrupt one payload byte: the file loader must reject it too.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 0xff
	badPath := filepath.Join(dir, "bad")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBuildFile(badPath, site, nil, nil, nil); err == nil {
		t.Fatal("corrupted file loaded successfully")
	}

	if _, err := LoadBuildFile(filepath.Join(dir, "missing"), site, nil, nil, nil); err == nil {
		t.Fatal("missing file loaded successfully")
	}
}

// TestAssociateAppendMatchesAssociate pins the buffer-reuse API: same
// associations, same order, across reused buffers and cancellation.
func TestAssociateAppendMatchesAssociate(t *testing.T) {
	b, ds, _ := snapTestBuild(t)
	ctx := context.Background()
	want, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	var out []Association
	for round := 0; round < 3; round++ {
		out, err = b.AssociateAppend(ctx, ds.Posts, out[:0])
		if err != nil {
			t.Fatalf("AssociateAppend round %d: %v", round, err)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("AssociateAppend round %d diverges from Associate", round)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := b.AssociateAppend(cancelled, ds.Posts, nil); err == nil {
		t.Fatal("AssociateAppend ignored a cancelled context")
	}
}

// TestSteadyStateZeroAlloc pins the serve path's allocation contract as a
// test, so it fails fast anywhere, not just in the CI bench gate:
// steady-state Match and AssociateAppend allocate nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside the measured paths")
	}
	b, ds, _ := snapTestBuild(t)
	ctx := context.Background()

	hashes := make([]phash.Hash, 0, 64)
	for i := range ds.Posts {
		if ds.Posts[i].HasImage {
			hashes = append(hashes, ds.Posts[i].PHash())
			if len(hashes) == cap(hashes) {
				break
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, h := range hashes {
			b.Match(h)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Match allocates %.1f per run, want 0", allocs)
	}

	out, err := b.AssociateAppend(ctx, ds.Posts, nil)
	if err != nil {
		t.Fatalf("AssociateAppend: %v", err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		var aerr error
		out, aerr = b.AssociateAppend(ctx, ds.Posts, out[:0])
		if aerr != nil {
			t.Fatal(aerr)
		}
	}); allocs != 0 {
		t.Errorf("steady-state AssociateAppend allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkSnapshotDecode isolates the pure in-memory decode cost — no
// file I/O, no queries — apart from the syscall overhead LoadBuildFile
// adds.
func BenchmarkSnapshotDecode(b *testing.B) {
	bld, ds, site := snapTestBuild(b)
	var buf bytes.Buffer
	if err := bld.Save(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.Run("v3", func(b *testing.B) {
		b.SetBytes(int64(len(snap)))
		for i := 0; i < b.N; i++ {
			if _, err := LoadBuild(bytes.NewReader(snap), site, ds, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// resign rewrites a mutated snapshot's envelope — the fileSize field and
// the CRC-32 trailer — to match its bytes, so fuzzed mutations get past
// the checksum and reach the directory and semantic checks.
func resign(data []byte) {
	if len(data) < v3HeaderSize+v3TrailerSize {
		return
	}
	n := len(data) - v3TrailerSize
	binary.LittleEndian.PutUint64(data[16:24], uint64(len(data)))
	binary.LittleEndian.PutUint32(data[n:], crc32.ChecksumIEEE(data[:n]))
}

// FuzzLoadSnapshot fuzzes the one snapshot loader with re-signed
// mutations of a real snapshot. Every input must either fail to load, or
// load an engine whose Save output is a fixed point — it loads and re-saves
// to the same bytes — and whose Match over a fixed probe set equals the
// linear-scan oracle over the engine's own cluster table.
func FuzzLoadSnapshot(f *testing.F) {
	b, ds, site := snapTestBuild(f)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		f.Fatalf("Save: %v", err)
	}
	f.Add(buf.Bytes())
	var probes []phash.Hash
	for i := range ds.Posts {
		if ds.Posts[i].HasImage && len(probes) < 64 {
			probes = append(probes, ds.Posts[i].PHash())
		}
	}
	for _, c := range b.Clusters {
		probes = append(probes, c.MedoidHash, c.MedoidHash^0xff)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		resign(data)
		loaded, err := LoadBuild(bytes.NewReader(data), site, nil, nil, nil)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := loaded.Save(&first); err != nil {
			t.Fatalf("Save of a loaded snapshot: %v", err)
		}
		again, err := LoadBuild(bytes.NewReader(first.Bytes()), site, nil, nil, nil)
		if err != nil {
			t.Fatalf("re-loading a saved snapshot: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("second Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("load → save is not a fixed point")
		}
		theta := loaded.Config.AssociationThreshold
		for _, h := range probes {
			gm, gok := loaded.Match(h)
			wm, wok := oracleMatch(loaded.Clusters, h, theta)
			if gok != wok || gm != wm {
				t.Fatalf("Match(%#x) = (%+v, %v), oracle (%+v, %v)", h, gm, gok, wm, wok)
			}
		}
	})
}
