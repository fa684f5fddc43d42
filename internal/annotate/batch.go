package annotate

import (
	"context"

	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
)

// AnnotateBatch annotates many cluster medoids concurrently (Step 5 as a
// batch). The site's gallery hashes are read-only after construction, so the
// per-medoid scans fan out across a worker pool (workers <= 0 means
// GOMAXPROCS); results are returned in medoid order and are identical to
// calling Annotate sequentially.
func (s *Site) AnnotateBatch(medoids []phash.Hash, threshold, workers int) []Annotation {
	out, _ := s.AnnotateBatchCtx(context.Background(), medoids, threshold, workers)
	return out
}

// AnnotateBatchCtx is AnnotateBatch with cancellation: medoids stop being
// scheduled once ctx is cancelled and (nil, ctx.Err()) is returned.
func (s *Site) AnnotateBatchCtx(ctx context.Context, medoids []phash.Hash, threshold, workers int) ([]Annotation, error) {
	return parallel.MapCtx(ctx, len(medoids), workers, func(i int) Annotation {
		return s.Annotate(medoids[i], threshold)
	})
}
