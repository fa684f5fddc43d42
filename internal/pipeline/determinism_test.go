package pipeline

import (
	"reflect"
	"testing"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
)

// TestRunDeterministicAcrossWorkerCounts asserts the engine's core
// guarantee: Build followed by Result produces identical clusters, associations, and
// per-community summaries for any worker count.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	run := func(workers int) *Result {
		cfg := DefaultConfig()
		cfg.Workers = workers
		res, err := runOnce(ds, site, cfg)
		if err != nil {
			t.Fatalf("run(workers=%d): %v", workers, err)
		}
		return res
	}
	base := run(1)
	if len(base.Clusters) == 0 || len(base.Associations) == 0 {
		t.Fatal("baseline run produced no clusters or associations")
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.Clusters, base.Clusters) {
			t.Errorf("workers=%d: Clusters diverge from workers=1", workers)
		}
		if !reflect.DeepEqual(got.Associations, base.Associations) {
			t.Errorf("workers=%d: Associations diverge from workers=1", workers)
		}
		if !reflect.DeepEqual(got.PerCommunity, base.PerCommunity) {
			t.Errorf("workers=%d: PerCommunity summaries diverge from workers=1", workers)
		}
	}
	// Cluster IDs must match their index (stable-merge invariant).
	for i, c := range base.Clusters {
		if c.ID != i {
			t.Fatalf("cluster %d has ID %d", i, c.ID)
		}
	}
}

func TestRunStatsPopulated(t *testing.T) {
	res := getRun(t)
	s := res.Stats
	if s.Workers < 1 {
		t.Fatalf("stats workers = %d", s.Workers)
	}
	for _, name := range []string{StageCluster, StageNeighbours, StageAnnotate, StageAssociate} {
		st, ok := s.Stage(name)
		if !ok {
			t.Fatalf("stage %q missing from stats", name)
		}
		if st.Duration < 0 {
			t.Fatalf("stage %q has negative duration", name)
		}
	}
	if _, ok := s.Stage("nonexistent"); ok {
		t.Fatal("unknown stage reported as present")
	}
	if s.Total <= 0 {
		t.Fatalf("total duration %v", s.Total)
	}
	if s.Clusters != len(res.Clusters) || s.Associations != len(res.Associations) {
		t.Fatal("stats counts disagree with result")
	}
	if s.AnnotatedClusters != len(res.AnnotatedClusters()) {
		t.Fatal("stats annotated count disagrees with result")
	}
	if s.TotalImages < s.FringeImages || s.FringeImages <= 0 {
		t.Fatalf("implausible image counts: total=%d fringe=%d", s.TotalImages, s.FringeImages)
	}
	if s.ImagesPerSec() <= 0 {
		t.Fatal("images/sec not positive")
	}
	if (StageStats{Name: "x", Duration: time.Second, Items: 5}).Throughput() != 5 {
		t.Fatal("throughput arithmetic wrong")
	}
	if s.String() == "" {
		t.Fatal("empty stats rendering")
	}
}
