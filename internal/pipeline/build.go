package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
)

// BuildResult is the resident output of the build phase (Steps 2-5): the
// per-community clusterings, the annotated clusters, and the annotated
// medoid hashes that Step 6 scans. Build it once, then serve any number of
// Associate / Match queries against it — the build/serve split the paper
// implies when it runs Step 6 over 160M images against a fixed set of
// annotated clusters.
//
// A BuildResult is immutable after Build returns and safe for concurrent use
// by multiple goroutines. Save persists it; LoadBuild reconstitutes it
// without re-running Steps 2-5.
type BuildResult struct {
	// Config echoes the configuration used.
	Config Config
	// Dataset is the corpus the build ran on; nil for a BuildResult loaded
	// from a snapshot without a bound dataset.
	Dataset *dataset.Dataset
	// Site is the annotation site used for Step 5.
	Site *annotate.Site
	// PerCommunity holds the clustering summary of each fringe community.
	PerCommunity map[dataset.Community]CommunityClustering
	// Clusters lists every cluster across the fringe communities; Clusters[i].ID == i.
	Clusters []ClusterInfo

	// medoidHashes and medoidIDs are the Step 6 scan: the annotated
	// clusters' medoid hashes and their cluster IDs, in ascending ID order.
	medoidHashes []phash.Hash
	medoidIDs    []int
	buildStats   RunStats      // cluster + annotate (or load) stage records
	buildWall    time.Duration // end-to-end wall time of Build (or LoadBuild)
	progress     ProgressFunc  // forwarded to Result's associate stage
	snapVersion  uint32        // MEMESNAP version loaded from; 0 for in-memory builds
}

// SnapshotVersion reports the MEMESNAP format version this BuildResult was
// reconstituted from — 3, the only version the loaders accept — or 0 for a
// result built in memory rather than loaded from a snapshot. Serving
// exposes it as a gauge so operators can tell which artifact generation a
// replica is running.
func (b *BuildResult) SnapshotVersion() uint32 { return b.snapVersion }

// Match is the outcome of a single-hash lookup against the annotated
// clusters: the winning cluster and its Hamming distance from the query.
type Match struct {
	// ClusterID indexes into BuildResult.Clusters (and Result.Clusters).
	ClusterID int
	// Distance is the Hamming distance between the query hash and the
	// cluster medoid.
	Distance int
}

// Build executes the expensive offline phase (Steps 2-5) over a dataset and
// an annotation site: per-community DBSCAN clustering, medoid
// materialisation, and medoid annotation, plus collection of the annotated
// medoids Step 6 scans. The stages run concurrently on Config.Workers workers, but
// the returned BuildResult (clusters, IDs, summaries) is identical for every
// worker count.
//
// Build stops promptly when ctx is cancelled and returns the context error;
// progress (optional) observes stage start/completion events.
func Build(ctx context.Context, ds *dataset.Dataset, site *annotate.Site, cfg Config, progress ProgressFunc) (*BuildResult, error) {
	if ds == nil || site == nil {
		return nil, errors.New("pipeline: nil dataset or site")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	b := &BuildResult{
		Config:       cfg,
		Dataset:      ds,
		Site:         site,
		PerCommunity: make(map[dataset.Community]CommunityClustering),
		progress:     progress,
	}
	workers := parallel.Workers(cfg.Workers)
	b.buildStats.Workers = workers
	start := now()
	em := emitter{stats: &b.buildStats, progress: progress}

	var fringe []dataset.Community
	for _, comm := range dataset.Communities() {
		if comm.Fringe() {
			fringe = append(fringe, comm)
		}
	}

	// Steps 2-3 run in two phases so total CPU-bound concurrency never
	// exceeds the configured worker bound while skewed community sizes
	// (/pol/ dominates) still saturate the pool. Phase one: DBSCAN every
	// fringe community concurrently (the fan-out itself is capped at
	// `workers`, and each community's parallel neighbourhood scan gets
	// workers/concurrent of the budget — floor division, mirroring the
	// medoid budget split below, so the total stays within the bound at
	// the cost of idling the remainder). Phase two: materialise medoids
	// one community at a time, each
	// with the full budget. Partials are indexed by the fixed
	// dataset.Communities() order, so the merge below assigns the same
	// cluster IDs for any worker count.
	stageStart := em.start(StageCluster)
	dbscanBudget := 1
	if concurrent := min(workers, len(fringe)); concurrent > 0 {
		if dbscanBudget = workers / concurrent; dbscanBudget < 1 {
			dbscanBudget = 1
		}
	}
	partials, err := parallel.MapErrCtx(ctx, len(fringe), workers, func(i int) (communityPartial, error) {
		p, err := clusterCommunity(ctx, ds, fringe[i], cfg, dbscanBudget)
		if err != nil {
			return communityPartial{}, fmt.Errorf("pipeline: clustering %v: %w", fringe[i], err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	fringeImages, totalClusters := 0, 0
	for i := range partials {
		p := &partials[i]
		if len(p.hashes) > 0 {
			clusters, err := cluster.MaterializeParallelCtx(ctx, p.hashes, p.counts, p.dbres, workers)
			if err != nil {
				return nil, err
			}
			p.clusters = clusters
			p.summary.Clusters = len(p.clusters)
		}
		fringeImages += p.summary.Images
		totalClusters += len(p.clusters)
	}
	em.done(StageCluster, stageStart, fringeImages)

	// The neighbourhood-scan throughput — the paper's GPU pairwise step —
	// is surfaced as its own stage record so the perf trajectory tracks it
	// separately from medoid materialisation.
	var neighDur time.Duration
	neighPoints := 0
	for i := range partials {
		neighDur += partials[i].dbres.Neighbourhoods.Duration
		neighPoints += partials[i].dbres.Neighbourhoods.Points
	}
	em.record(StageNeighbours, neighDur, neighPoints)

	// Step 5 plus the merge and the Step 6 scan, shared with the incremental
	// rebuild path so both assign byte-identical IDs and annotations.
	annotated, err := assemble(ctx, b, fringe, partials, workers, em)
	if err != nil {
		return nil, err
	}

	b.buildStats.FringeImages = fringeImages
	b.buildStats.Clusters = len(b.Clusters)
	b.buildStats.AnnotatedClusters = annotated
	b.buildWall = since(start)
	return b, nil
}

// assemble runs Step 5 (batch medoid annotation) over fully materialised
// partials, merges them into b in fixed community order — assigning stable
// sequential cluster IDs — and collects the Step 6 scan. It returns the
// annotated-cluster count. Shared by Build and Incremental.RebuildCtx: the
// streaming path's determinism guarantee (bitwise-identical clusters to a
// from-scratch build over the union corpus) holds by construction because
// both paths run this exact code over identical partials.
func assemble(ctx context.Context, b *BuildResult, fringe []dataset.Community, partials []communityPartial, workers int, em emitter) (int, error) {
	totalClusters := 0
	for i := range partials {
		totalClusters += len(partials[i].clusters)
	}

	// Step 5: batch-annotate every medoid across all communities at once.
	stageStart := em.start(StageAnnotate)
	medoids := make([]phash.Hash, 0, totalClusters)
	for _, p := range partials {
		for _, c := range p.clusters {
			medoids = append(medoids, c.MedoidHash)
		}
	}
	annotations, err := b.Site.AnnotateBatchCtx(ctx, medoids, b.Config.AnnotationThreshold, workers)
	if err != nil {
		return 0, err
	}

	// Merge in fixed community order, assigning stable cluster IDs.
	at := 0
	for pi, p := range partials {
		summary := p.summary
		for _, c := range p.clusters {
			ann := annotations[at]
			at++
			info := ClusterInfo{
				ID:             len(b.Clusters),
				Community:      fringe[pi],
				Label:          c.Label,
				MedoidHash:     c.MedoidHash,
				Images:         c.Size,
				DistinctHashes: len(c.Members),
				Annotation:     ann,
			}
			for _, m := range ann.Matches {
				if m.Entry.IsRacist() {
					info.Racist = true
				}
				if m.Entry.IsPolitical() {
					info.Political = true
				}
			}
			if ann.Annotated() {
				summary.Annotated++
			}
			b.Clusters = append(b.Clusters, info)
		}
		b.PerCommunity[fringe[pi]] = summary
	}
	em.done(StageAnnotate, stageStart, totalClusters)

	return b.indexMedoids(), nil
}

// indexMedoids collects the Step 6 scan from the cluster table — the
// annotated clusters' medoid hashes and IDs, in ascending ID order — and
// returns the annotated-cluster count. Build and every snapshot load run
// this same function, so a loaded engine serves exactly what its cluster
// table implies.
func (b *BuildResult) indexMedoids() int {
	b.medoidHashes, b.medoidIDs = nil, nil
	for i := range b.Clusters {
		if b.Clusters[i].Annotated() {
			b.medoidHashes = append(b.medoidHashes, b.Clusters[i].MedoidHash)
			b.medoidIDs = append(b.medoidIDs, b.Clusters[i].ID)
		}
	}
	return len(b.medoidHashes)
}

// Stats returns the build-phase stage records (cluster and annotate); the
// associate stage is recorded per materialisation by Result.
func (b *BuildResult) Stats() RunStats {
	s := b.buildStats
	s.Stages = append([]StageStats(nil), b.buildStats.Stages...)
	s.Total = b.buildWall
	return s
}

// Communities returns the fringe communities present in PerCommunity in the
// fixed dataset.Communities() order.
func (b *BuildResult) Communities() []dataset.Community {
	return communitiesOf(b.PerCommunity)
}

// Associate runs Step 6 over an arbitrary batch of posts — they need not be
// part of the dataset the build ran on. Every image post is matched against
// the annotated-cluster medoids; the nearest medoid within the
// association threshold wins, with ties broken by the lowest cluster ID.
// PostIndex in the returned associations indexes into posts, which come out
// sorted by that index.
//
// Associate is goroutine-safe (the medoid scan is read-only) and stops
// promptly with ctx.Err() when ctx is cancelled. The result is identical for
// any worker count.
func (b *BuildResult) Associate(ctx context.Context, posts []dataset.Post) ([]Association, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(b.medoidHashes) == 0 {
		return nil, ctx.Err()
	}
	return parallel.MapChunksCtx(ctx, len(posts), b.Config.Workers, func(lo, hi int) []Association {
		var out []Association
		for i := lo; i < hi; i++ {
			p := &posts[i]
			if !p.HasImage {
				continue
			}
			// The chunk fan-out already honours ctx; the per-hash scan
			// runs uncancelled so a chunk's associations are all-or-
			// nothing.
			if m, ok := b.match(p.PHash()); ok {
				out = append(out, Association{PostIndex: i, ClusterID: m.ClusterID, Distance: m.Distance})
			}
		}
		return out
	})
}

// AssociateAppend is Associate for resident serving loops: it appends the
// associations for posts to out and returns the extended slice, so a caller
// that reuses its buffer (out = out[:0] between batches) pays zero
// steady-state allocations — the batch result lives in reused memory and
// the medoid scan allocates nothing. The produced associations are bitwise
// identical to Associate's for the same posts.
//
// The batch runs on the calling goroutine (serving layers batch many small
// requests, so parallelism across batches beats fan-out within one); ctx is
// checked on entry and every 1024 posts.
//
//memes:noalloc
func (b *BuildResult) AssociateAppend(ctx context.Context, posts []dataset.Post, out []Association) ([]Association, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if len(b.medoidHashes) == 0 {
		return out, nil
	}
	for i := range posts {
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		p := &posts[i]
		if !p.HasImage {
			continue
		}
		if m, ok := b.match(p.PHash()); ok {
			out = append(out, Association{PostIndex: i, ClusterID: m.ClusterID, Distance: m.Distance})
		}
	}
	return out, nil
}

// Match looks a single perceptual hash up against the annotated clusters
// (Step 6 for one image). The boolean is false when no annotated medoid lies
// within the association threshold. Goroutine-safe.
func (b *BuildResult) Match(h phash.Hash) (Match, bool) { return b.match(h) }

// MatchCtx is Match honouring ctx cancellation: one ctx check on entry, then
// the scan, which is short and uncancellable. Goroutine-safe.
func (b *BuildResult) MatchCtx(ctx context.Context, h phash.Hash) (Match, bool, error) {
	if err := ctx.Err(); err != nil {
		return Match{}, false, err
	}
	m, ok := b.match(h)
	return m, ok, nil
}

// match is the Step 6 scan — the paper's brute-force pairing of a post
// image with every annotated medoid: the nearest medoid within the
// association threshold wins. The medoids are in ascending cluster-ID order
// and only a strictly closer medoid replaces the best so far, so ties go to
// the lowest cluster ID.
//
//memes:noalloc
func (b *BuildResult) match(h phash.Hash) (Match, bool) {
	best, at := b.Config.AssociationThreshold+1, -1
	for i, m := range b.medoidHashes {
		if d := phash.Distance(h, m); d < best {
			best, at = d, i
		}
	}
	if at < 0 {
		return Match{}, false
	}
	return Match{ClusterID: b.medoidIDs[at], Distance: best}, true
}

// Result materialises the legacy one-shot Result from the build: it runs
// Associate over the full build dataset (Step 6) and merges the build-phase
// stats with the associate stage timing, so downstream consumers
// (analysis.NewReport, hawkes influence estimation) keep working unchanged.
// The Result shares the build's clusters and summaries; treat both as
// read-only.
func (b *BuildResult) Result(ctx context.Context) (*Result, error) {
	if b.Dataset == nil {
		return nil, errors.New("pipeline: build has no dataset bound; load the snapshot with a dataset to materialise a Result")
	}
	return b.materialise(ctx, b.Dataset)
}

// ResultFor materialises a Result whose associations cover an arbitrary post
// slice instead of the build corpus. This is the replay primitive behind
// `memereport -replay`: posts reconstructed from a served decision log are
// re-associated against the resident clusters, so the paper's tables
// regenerate from real served traffic. The returned Result carries a shallow
// copy of the build dataset with Posts swapped for the given slice; the
// cluster inventory and per-community summaries remain the build's — the
// artifact is fixed, only the traffic varies. A bound dataset is still
// required: it supplies the corpus observation window (Start/End) and the
// ground-truth tables the report renders against.
func (b *BuildResult) ResultFor(ctx context.Context, posts []dataset.Post) (*Result, error) {
	if b.Dataset == nil {
		return nil, errors.New("pipeline: build has no dataset bound; replay needs the corpus window and ground-truth tables")
	}
	ds := *b.Dataset
	ds.Posts = posts
	return b.materialise(ctx, &ds)
}

// materialise runs Step 6 over ds.Posts and assembles the Result shared by
// Result (full corpus) and ResultFor (replayed traffic).
func (b *BuildResult) materialise(ctx context.Context, ds *dataset.Dataset) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := now()
	res := &Result{
		Config:       b.Config,
		Dataset:      ds,
		Site:         b.Site,
		PerCommunity: b.PerCommunity,
		Clusters:     b.Clusters,
		Stats:        b.buildStats,
	}
	res.Stats.Stages = append([]StageStats(nil), b.buildStats.Stages...)
	em := emitter{stats: &res.Stats, progress: b.progress}

	imagePosts := 0
	for i := range ds.Posts {
		if ds.Posts[i].HasImage {
			imagePosts++
		}
	}
	stageStart := em.start(StageAssociate)
	assoc, err := b.Associate(ctx, ds.Posts)
	if err != nil {
		return nil, err
	}
	res.Associations = assoc
	em.done(StageAssociate, stageStart, imagePosts)

	res.Stats.Total = b.buildWall + since(start)
	res.Stats.TotalImages = imagePosts
	res.Stats.Associations = len(assoc)
	return res, nil
}

// communitiesOf returns the fringe communities present in the summary map in
// the fixed dataset.Communities() order, so ranging over per-community
// summaries is reproducible.
func communitiesOf(per map[dataset.Community]CommunityClustering) []dataset.Community {
	var out []dataset.Community
	for _, c := range dataset.Communities() {
		if _, ok := per[c]; ok {
			out = append(out, c)
		}
	}
	return out
}
