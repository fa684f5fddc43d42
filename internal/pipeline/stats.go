package pipeline

import (
	"fmt"
	"strings"
	"time"
)

// Stage names reported in RunStats.Stages, in execution order.
const (
	StageCluster   = "cluster"   // Steps 2-3: per-community DBSCAN + medoids
	StageAnnotate  = "annotate"  // Step 5: medoid annotation against the site
	StageAssociate = "associate" // Step 6: post-to-cluster association
	StageLoad      = "load"      // snapshot decode + medoid-scan rebuild (replaces Steps 2-5 on LoadBuild)
	StageRecluster = "recluster" // streaming ingest: incremental DBSCAN over the affected communities

	// StageNeighbours is the accounting record of DBSCAN's phase one: the
	// parallel eps-neighbourhood scan, the CPU analogue of the paper's GPU
	// pairwise engine. It runs inside the cluster stage (one scan per fringe
	// community), so it is recorded right after cluster completes; Items is
	// the number of distinct hashes scanned and Duration the per-community
	// scan wall times summed — a throughput record, not an extra serial
	// phase.
	StageNeighbours = "neighbours"
)

// StageStats records the wall-clock cost of one pipeline stage.
type StageStats struct {
	// Name is one of the Stage* constants.
	Name string
	// Duration is the stage's wall time.
	Duration time.Duration
	// Items is the number of units the stage processed: fringe images for
	// clustering, clusters for annotation, image posts for association.
	Items int
}

// Throughput returns Items per second, or 0 for an instantaneous stage.
func (s StageStats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Items) / s.Duration.Seconds()
}

// RunStats aggregates the timing of one pipeline run: per-stage wall time,
// throughput, and output counts. It is the quantity the paper reports in §7
// (Performance: ~73 images/sec on two Titan Xp GPUs for Step 6).
type RunStats struct {
	// Workers is the resolved worker-pool size the run used.
	Workers int
	// Stages lists the stage timings in execution order.
	Stages []StageStats
	// Total is the end-to-end wall time of Run.
	Total time.Duration

	// FringeImages is the number of image occurrences on the fringe
	// communities (the clustering input).
	FringeImages int
	// TotalImages is the number of image posts across all communities (the
	// association input).
	TotalImages int
	// Clusters and AnnotatedClusters count the Steps 2-5 output.
	Clusters          int
	AnnotatedClusters int
	// Associations counts the Step 6 output.
	Associations int
}

// observe records one stage-completion event; RunStats.Stages is exactly
// the sequence of completion events a ProgressFunc would see.
func (s *RunStats) observe(ev StageEvent) {
	if !ev.Done {
		return
	}
	s.Stages = append(s.Stages, StageStats{Name: ev.Stage, Duration: ev.Duration, Items: ev.Items})
}

// Stage returns the stats of the named stage; ok is false when the stage
// was not recorded.
func (s RunStats) Stage(name string) (StageStats, bool) {
	for _, st := range s.Stages {
		if st.Name == name {
			return st, true
		}
	}
	return StageStats{}, false
}

// ImagesPerSec returns the end-to-end throughput: image posts processed per
// second of total wall time.
func (s RunStats) ImagesPerSec() float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.TotalImages) / s.Total.Seconds()
}

// String renders the stats as a short human-readable block, one line per
// stage plus a totals line.
func (s RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline stats (workers=%d):\n", s.Workers)
	for _, st := range s.Stages {
		fmt.Fprintf(&b, "  %-10s %12v  %8d items  %10.0f items/sec\n",
			st.Name, st.Duration.Round(time.Microsecond), st.Items, st.Throughput())
	}
	fmt.Fprintf(&b, "  %-10s %12v  %8d images  %10.0f images/sec  (%d clusters, %d annotated, %d associations)",
		"total", s.Total.Round(time.Microsecond), s.TotalImages, s.ImagesPerSec(),
		s.Clusters, s.AnnotatedClusters, s.Associations)
	return b.String()
}
