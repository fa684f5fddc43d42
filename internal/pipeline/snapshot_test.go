package pipeline

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/dataset"
)

// resultFingerprint strips the only legitimately run-varying field (Stats)
// so results can be compared bitwise.
func resultFingerprint(r *Result) Result {
	fp := *r
	fp.Stats = RunStats{}
	return fp
}

// TestSnapshotRoundTripDeterminism is the round-trip acceptance test: at
// several worker counts, Build → Save → Load → Result is byte-identical to
// the never-persisted engine's Result, re-saving the loaded build
// reproduces the file, and the snapshot bytes themselves are identical
// across worker counts.
func TestSnapshotRoundTripDeterminism(t *testing.T) {
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	ctx := context.Background()

	var refSnap []byte
	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers

		b, err := Build(ctx, ds, site, cfg, nil)
		if err != nil {
			t.Fatalf("w%d: Build: %v", workers, err)
		}
		want, err := b.Result(ctx)
		if err != nil {
			t.Fatalf("w%d: Result: %v", workers, err)
		}

		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatalf("w%d: Save: %v", workers, err)
		}

		loaded, err := LoadBuild(bytes.NewReader(buf.Bytes()), site, ds, nil, nil)
		if err != nil {
			t.Fatalf("w%d: LoadBuild: %v", workers, err)
		}
		// Load → re-save reproduces the file byte for byte.
		if resaved := snapshotBytes(t, loaded); !bytes.Equal(resaved, buf.Bytes()) {
			t.Errorf("w%d: re-saving the loaded build changes the snapshot bytes", workers)
		}
		got, err := loaded.Result(ctx)
		if err != nil {
			t.Fatalf("w%d: loaded Result: %v", workers, err)
		}
		if !reflect.DeepEqual(resultFingerprint(got), resultFingerprint(want)) {
			t.Errorf("w%d: loaded Result diverges from never-persisted Result", workers)
		}

		// The loaded build must have done zero Steps 2-5 work: its
		// stats carry only the load stage.
		bs := loaded.Stats()
		if len(bs.Stages) != 1 || bs.Stages[0].Name != StageLoad {
			t.Errorf("w%d: loaded stats stages = %+v, want [%s]", workers, bs.Stages, StageLoad)
		}
		for _, forbidden := range []string{StageCluster, StageNeighbours, StageAnnotate} {
			if _, ok := bs.Stage(forbidden); ok {
				t.Errorf("w%d: loaded stats carry build stage %q", workers, forbidden)
			}
		}

		// Snapshot bytes are worker-independent except for the config
		// echo; normalise it and compare to the first.
		norm := cfg
		norm.Workers = 0
		b.Config = norm
		var normBuf bytes.Buffer
		if err := b.Save(&normBuf); err != nil {
			t.Fatalf("w%d: normalised Save: %v", workers, err)
		}
		if refSnap == nil {
			refSnap = normBuf.Bytes()
		} else if !bytes.Equal(refSnap, normBuf.Bytes()) {
			t.Errorf("w%d: snapshot bytes differ from reference build", workers)
		}
	}
}

// TestSnapshotServesWithoutDataset asserts the serve-only load path: a
// snapshot loaded with a nil dataset answers Associate and Match exactly
// like the original build, and only Result demands a bound corpus.
func TestSnapshotServesWithoutDataset(t *testing.T) {
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	ctx := context.Background()
	b, err := Build(ctx, ds, site, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadBuild(&buf, site, nil, nil, nil)
	if err != nil {
		t.Fatalf("LoadBuild: %v", err)
	}

	wantAssoc, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	gotAssoc, err := loaded.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("loaded Associate: %v", err)
	}
	if !reflect.DeepEqual(gotAssoc, wantAssoc) {
		t.Fatal("loaded Associate diverges from original build")
	}
	for i := range b.Clusters {
		wm, wok := b.Match(b.Clusters[i].MedoidHash)
		gm, gok := loaded.Match(b.Clusters[i].MedoidHash)
		if wok != gok || wm != gm {
			t.Fatalf("cluster %d: loaded Match (%+v,%v) diverges from (%+v,%v)", i, gm, gok, wm, wok)
		}
	}
	if _, err := loaded.Result(ctx); err == nil {
		t.Fatal("Result on a dataset-less load should fail")
	} else if !strings.Contains(err.Error(), "no dataset") {
		t.Fatalf("unexpected Result error: %v", err)
	}
}

// TestSnapshotReconfigOverrides asserts load-time overrides: the worker
// count can be swapped while the served results stay identical.
func TestSnapshotReconfigOverrides(t *testing.T) {
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	ctx := context.Background()
	b, err := Build(ctx, ds, site, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantAssoc, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	snap := buf.Bytes()
	loaded, err := LoadBuild(bytes.NewReader(snap), site, nil, func(c *Config) {
		c.Workers = 3
	}, nil)
	if err != nil {
		t.Fatalf("LoadBuild: %v", err)
	}
	if loaded.Config.Workers != 3 {
		t.Fatalf("reconfig not applied: %+v", loaded.Config)
	}
	got, err := loaded.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	if !reflect.DeepEqual(got, wantAssoc) {
		t.Fatal("a 3-worker reload serves different associations")
	}
	// An invalid override fails validation.
	if _, err := LoadBuild(bytes.NewReader(snap), site, nil, func(c *Config) {
		c.Workers = -1
	}, nil); err == nil {
		t.Fatal("negative worker override accepted at load")
	}
}

// TestSnapshotRejectsGarbage covers the failure modes: bad magic, bad
// version, truncation, payload corruption, and a site that lacks the
// referenced entries.
func TestSnapshotRejectsGarbage(t *testing.T) {
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
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	snap := buf.Bytes()

	if _, err := LoadBuild(strings.NewReader("not a snapshot at all"), site, nil, nil, nil); err == nil {
		t.Fatal("bad magic accepted")
	}

	bumped := append([]byte(nil), snap...)
	bumped[8]++ // version field
	if _, err := LoadBuild(bytes.NewReader(bumped), site, nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}

	if _, err := LoadBuild(bytes.NewReader(snap[:len(snap)/2]), site, nil, nil, nil); err == nil {
		t.Fatal("truncated snapshot accepted")
	}

	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := LoadBuild(bytes.NewReader(corrupt), site, nil, nil, nil); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}

	// A site without the referenced entries must fail loudly, not serve
	// silently wrong annotations.
	empty, err := annotate.NewSite(nil)
	if err != nil {
		t.Fatalf("NewSite: %v", err)
	}
	if _, err := LoadBuild(bytes.NewReader(snap), empty, nil, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "entry") {
		t.Fatalf("snapshot loaded against a site missing its entries: %v", err)
	}

	if _, err := LoadBuild(bytes.NewReader(snap), nil, nil, nil, nil); err == nil {
		t.Fatal("nil site accepted")
	}
}

// buildSnapshotBytes builds one small snapshot and returns it with the site
// it must be loaded against; shared by the exhaustive corruption tests.
func buildSnapshotBytes(t *testing.T) ([]byte, *annotate.Site) {
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
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes(), site
}

// TestSnapshotRejectsEveryTruncation cuts the stream at every possible
// length — through the header, mid-config, mid-community-summary,
// mid-cluster, mid-annotation-string, and inside the CRC trailer — and
// demands a loud load error for each. TestSnapshotRejectsGarbage samples a
// single offset; every section boundary gets covered here.
func TestSnapshotRejectsEveryTruncation(t *testing.T) {
	snap, site := buildSnapshotBytes(t)
	for n := 0; n < len(snap); n++ {
		if _, err := LoadBuild(bytes.NewReader(snap[:n]), site, nil, nil, nil); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded successfully", n, len(snap))
		}
	}
	if _, err := LoadBuild(bytes.NewReader(snap), site, nil, nil, nil); err != nil {
		t.Fatalf("untruncated snapshot rejected: %v", err)
	}
}

// TestSnapshotRejectsEveryByteFlip corrupts each byte of the stream in turn:
// header flips must fail the magic/version checks, payload flips the CRC
// check (or a structural read on the way to it), trailer flips the checksum
// comparison itself. No single-byte corruption may load.
func TestSnapshotRejectsEveryByteFlip(t *testing.T) {
	snap, site := buildSnapshotBytes(t)
	corrupt := make([]byte, len(snap))
	for i := 0; i < len(snap); i++ {
		copy(corrupt, snap)
		corrupt[i] ^= 0xff
		if _, err := LoadBuild(bytes.NewReader(corrupt), site, nil, nil, nil); err == nil {
			t.Fatalf("snapshot with byte %d of %d flipped loaded successfully", i, len(snap))
		}
	}
}

// TestSnapshotChecksumTrailerBoundaries pins the CRC trailer specifically:
// flipping any of the four stored checksum bytes must produce the checksum
// mismatch error (not a structural one), and truncating into the trailer
// must fail reading the checksum.
func TestSnapshotChecksumTrailerBoundaries(t *testing.T) {
	snap, site := buildSnapshotBytes(t)
	for i := len(snap) - 4; i < len(snap); i++ {
		corrupt := append([]byte(nil), snap...)
		corrupt[i] ^= 0x01
		_, err := LoadBuild(bytes.NewReader(corrupt), site, nil, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("trailer byte %d flipped: err = %v, want checksum mismatch", i, err)
		}
	}
	for drop := 1; drop <= 4; drop++ {
		_, err := LoadBuild(bytes.NewReader(snap[:len(snap)-drop]), site, nil, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("trailer truncated by %d: err = %v, want checksum read failure", drop, err)
		}
	}
}
