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
)

// Incremental maintains the streaming counterpart of Build: per-fringe-
// community cluster.Incremental states seeded from a base corpus, a growing
// union post slice, and the cached per-community partials of the previous
// rebuild. AddPosts absorbs new posts; RebuildCtx re-clusters only the
// communities those posts touched and reassembles a full BuildResult.
//
// The determinism contract is the whole point: after any sequence of
// AddPosts/RebuildCtx calls, the returned BuildResult is bitwise-identical
// (as pinned by Save bytes) to Build over the union corpus in ingest order,
// for every worker count. It holds because community
// states replay posts in the same first-appearance order clusterCommunity
// uses, cluster.Incremental produces labels bitwise-equal to a batch DBSCAN,
// and the assemble step is literally shared with Build.
//
// Incremental is not goroutine-safe; callers serialise access (the ingest
// subsystem funnels all mutations through one re-cluster goroutine).
type Incremental struct {
	cfg    Config
	base   *dataset.Dataset
	site   *annotate.Site
	fringe []dataset.Community

	states   []*cluster.Incremental // one per fringe community
	images   []int                  // image-occurrence count per fringe community
	partials []communityPartial     // cached materialisation of the previous rebuild
	fresh    []bool                 // partials[i] reflects states[i]

	union      []dataset.Post // base posts ++ added posts, in ingest order
	added      int            // posts appended beyond the base corpus
	addedPer   map[dataset.Community]int
	unionCache *dataset.Dataset
}

// NewIncremental seeds an incremental build state from a base corpus. The
// configuration must match the one the currently served engine was built
// with, or the determinism contract against a from-scratch build is void.
func NewIncremental(ds *dataset.Dataset, site *annotate.Site, cfg Config) (*Incremental, error) {
	if ds == nil || site == nil {
		return nil, errors.New("pipeline: nil dataset or site")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inc := &Incremental{
		cfg:      cfg,
		base:     ds,
		site:     site,
		addedPer: make(map[dataset.Community]int),
	}
	for _, comm := range dataset.Communities() {
		if comm.Fringe() {
			inc.fringe = append(inc.fringe, comm)
		}
	}
	cc := cfg.Clustering
	if cc.Workers == 0 {
		// Communities re-cluster one at a time, so each scan gets the full
		// budget; the worker count never changes labels.
		cc.Workers = cfg.Workers
	}
	inc.states = make([]*cluster.Incremental, len(inc.fringe))
	inc.images = make([]int, len(inc.fringe))
	inc.partials = make([]communityPartial, len(inc.fringe))
	inc.fresh = make([]bool, len(inc.fringe))
	for i := range inc.fringe {
		st, err := cluster.NewIncremental(cc)
		if err != nil {
			return nil, err
		}
		inc.states[i] = st
	}
	// One pass over the base posts seeds every community state in the same
	// per-community first-appearance order clusterCommunity extracts.
	for pi := range ds.Posts {
		inc.absorb(&ds.Posts[pi])
	}
	// Cap the union at the base length so the first AddPosts copies instead
	// of appending into the base dataset's backing array.
	inc.union = ds.Posts[:len(ds.Posts):len(ds.Posts)]
	return inc, nil
}

// absorb feeds one post into its community's clustering state.
func (inc *Incremental) absorb(p *dataset.Post) {
	if !p.HasImage || !p.Community.Fringe() {
		return
	}
	for i, comm := range inc.fringe {
		if comm == p.Community {
			inc.states[i].Add(p.PHash())
			inc.images[i]++
			inc.fresh[i] = false
			return
		}
	}
}

// AddPosts appends posts to the union corpus and feeds fringe image posts
// into their community states. The next RebuildCtx re-clusters exactly the
// communities touched here (non-fringe posts join the union for Associate
// and Result but never affect clustering).
func (inc *Incremental) AddPosts(posts []dataset.Post) {
	if len(posts) == 0 {
		return
	}
	inc.union = append(inc.union, posts...)
	inc.added += len(posts)
	inc.unionCache = nil
	for pi := range posts {
		inc.addedPer[posts[pi].Community]++
		inc.absorb(&posts[pi])
	}
}

// Added returns the number of posts absorbed beyond the base corpus.
func (inc *Incremental) Added() int { return inc.added }

// UnionDataset returns the base corpus extended with every added post: the
// dataset a from-scratch Build would run on. With no added posts it is the
// base itself; otherwise a shallow copy with the union post slice and
// updated per-community totals (maps and metadata are shared read-only).
func (inc *Incremental) UnionDataset() *dataset.Dataset {
	if inc.added == 0 {
		return inc.base
	}
	if inc.unionCache != nil {
		return inc.unionCache
	}
	u := *inc.base
	u.Posts = inc.union
	u.PostTotals = make(map[dataset.Community]int, len(inc.base.PostTotals))
	for c, n := range inc.base.PostTotals {
		u.PostTotals[c] = n
	}
	for c, n := range inc.addedPer {
		u.PostTotals[c] += n
	}
	inc.unionCache = &u
	return inc.unionCache
}

// RebuildCtx re-clusters every community with unabsorbed changes — the first
// call pays the full neighbourhood scan, later calls only scan new points
// against the cached lists — and assembles a fresh BuildResult over the
// union corpus via the exact annotate/merge/scan path Build uses. The
// result is immutable and ready for HotEngine.Swap.
func (inc *Incremental) RebuildCtx(ctx context.Context, progress ProgressFunc) (*BuildResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &BuildResult{
		Config:       inc.cfg,
		Dataset:      inc.UnionDataset(),
		Site:         inc.site,
		PerCommunity: make(map[dataset.Community]CommunityClustering),
		progress:     progress,
	}
	workers := parallel.Workers(inc.cfg.Workers)
	b.buildStats.Workers = workers
	start := now()
	em := emitter{stats: &b.buildStats, progress: progress}

	stageStart := em.start(StageRecluster)
	reclusteredImages := 0
	var neighDur time.Duration
	neighPoints := 0
	for i, comm := range inc.fringe {
		if inc.fresh[i] {
			continue
		}
		st := inc.states[i]
		hashes, counts := st.Points()
		summary := CommunityClustering{Community: comm, Images: inc.images[i], DistinctHashes: len(hashes)}
		p := communityPartial{summary: summary}
		if len(hashes) > 0 {
			dbres, err := st.ReclusterCtx(ctx)
			if err != nil {
				return nil, fmt.Errorf("pipeline: re-clustering %v: %w", comm, err)
			}
			for j, lbl := range dbres.Labels {
				if lbl == cluster.Noise {
					p.summary.NoiseImages += counts[j]
				}
			}
			clusters, err := cluster.MaterializeParallelCtx(ctx, hashes, counts, dbres, workers)
			if err != nil {
				return nil, err
			}
			p.hashes, p.counts, p.dbres, p.clusters = hashes, counts, dbres, clusters
			p.summary.Clusters = len(clusters)
			neighDur += dbres.Neighbourhoods.Duration
			neighPoints += dbres.Neighbourhoods.Points
		}
		inc.partials[i] = p
		inc.fresh[i] = true
		reclusteredImages += p.summary.Images
	}
	em.done(StageRecluster, stageStart, reclusteredImages)
	if neighPoints > 0 {
		em.record(StageNeighbours, neighDur, neighPoints)
	}

	fringeImages := 0
	for i := range inc.partials {
		fringeImages += inc.partials[i].summary.Images
	}
	annotated, err := assemble(ctx, b, inc.fringe, inc.partials, workers, em)
	if err != nil {
		return nil, err
	}
	b.buildStats.FringeImages = fringeImages
	b.buildStats.Clusters = len(b.Clusters)
	b.buildStats.AnnotatedClusters = annotated
	b.buildWall = since(start)
	return b, nil
}
