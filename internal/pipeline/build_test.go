package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/phash"
)

// oracleMatch is Step 6 for one hash from first principles: the hash is
// compared with the medoid of every annotated cluster, and the closest one
// within the association threshold wins, ties going to the lowest cluster
// ID.
func oracleMatch(clusters []ClusterInfo, h phash.Hash, theta int) (Match, bool) {
	best := Match{ClusterID: -1}
	for i := range clusters {
		c := &clusters[i]
		d := phash.Distance(h, c.MedoidHash)
		if !c.Annotated() || d > theta {
			continue
		}
		if best.ClusterID < 0 || d < best.Distance || (d == best.Distance && c.ID < best.ClusterID) {
			best = Match{ClusterID: c.ID, Distance: d}
		}
	}
	if best.ClusterID < 0 {
		return Match{}, false
	}
	return best, true
}

// linearScanOracle is oracleMatch over every image post of a batch.
func linearScanOracle(clusters []ClusterInfo, posts []dataset.Post, theta int) []Association {
	var out []Association
	for i := range posts {
		if !posts[i].HasImage {
			continue
		}
		if m, ok := oracleMatch(clusters, posts[i].PHash(), theta); ok {
			out = append(out, Association{PostIndex: i, ClusterID: m.ClusterID, Distance: m.Distance})
		}
	}
	return out
}

// TestBuildThenResultMatchesRun asserts the phase split is lossless: a
// second Build followed by Result reproduces the shared run (Stats
// excepted, as documented), the build phase alone already carries its
// clusters and summaries, and the run's associations are exactly the
// linear-scan oracle's.
func TestBuildThenResultMatchesRun(t *testing.T) {
	res := getRun(t)
	b, err := Build(context.Background(), res.Dataset, res.Site, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	got, err := b.Result(context.Background())
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !reflect.DeepEqual(got.Clusters, res.Clusters) ||
		!reflect.DeepEqual(got.Associations, res.Associations) ||
		!reflect.DeepEqual(got.PerCommunity, res.PerCommunity) {
		t.Fatal("Build+Result diverges from the shared run")
	}
	// The build phase alone must already expose the clusters and summaries.
	if !reflect.DeepEqual(b.Clusters, res.Clusters) || !reflect.DeepEqual(b.PerCommunity, res.PerCommunity) {
		t.Fatal("BuildResult clusters/summaries diverge from the shared run")
	}
	want := linearScanOracle(res.Clusters, res.Dataset.Posts, DefaultConfig().AssociationThreshold)
	if len(want) == 0 || !reflect.DeepEqual(res.Associations, want) {
		t.Fatalf("associations diverge from the linear-scan oracle (%d vs %d)", len(res.Associations), len(want))
	}
}

// TestBuildResultMatchAgreesWithAssociate checks the single-hash lookup and
// the batch path pick the same winner for every associated post.
func TestBuildResultMatchAgreesWithAssociate(t *testing.T) {
	res := getRun(t)
	b, err := Build(context.Background(), res.Dataset, res.Site, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, a := range res.Associations[:min(50, len(res.Associations))] {
		m, ok := b.Match(res.Dataset.Posts[a.PostIndex].PHash())
		if !ok || m.ClusterID != a.ClusterID || m.Distance != a.Distance {
			t.Fatalf("Match diverges from association %+v: (%+v, %v)", a, m, ok)
		}
	}
	// A hash maximally far from everything must not match.
	if m, ok := b.Match(0xFFFFFFFFFFFFFFFF); ok && m.Distance > b.Config.AssociationThreshold {
		t.Fatalf("Match returned out-of-threshold result %+v", m)
	}
}

// TestRunContextCancelled covers cancellation at the pipeline layer: a
// pre-cancelled context fails both phases.
func TestRunContextCancelled(t *testing.T) {
	res := getRun(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, res.Dataset, res.Site, DefaultConfig(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Build on cancelled ctx: %v", err)
	}
	b, err := Build(context.Background(), res.Dataset, res.Site, DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := b.Associate(ctx, res.Dataset.Posts); !errors.Is(err, context.Canceled) {
		t.Fatalf("Associate on cancelled ctx: %v", err)
	}
	if _, err := b.Result(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result on cancelled ctx: %v", err)
	}
}

// TestResultCommunitiesFixedOrder asserts the reproducible-iteration helper
// returns the fringe communities in dataset order.
func TestResultCommunitiesFixedOrder(t *testing.T) {
	res := getRun(t)
	want := []dataset.Community{dataset.Pol, dataset.Gab, dataset.TheDonald}
	if got := res.Communities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Result.Communities() = %v, want %v", got, want)
	}
}
