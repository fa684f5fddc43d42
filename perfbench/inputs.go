package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"math/rand"
	"sort"
	"time"

	"github.com/memes-pipeline/memes/internal/benchcorpus"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/imaging"
)

// Workload input sizes, fixed so that every seed yields the same amount of
// work.
const (
	imageEvery      = 10  // every 10th lookup is POST /v1/match/image
	bulkBatch       = 256 // posts per /v1/associate request
	ingestBatch     = 64  // posts per Ingestor.Ingest call in the traced replay
	ingestThreshold = 256 // pool size at which the traced replay re-clusters, memeserve's -ingest-threshold
	noiseImagePool  = 32  // distinct rendered noise images
)

// genCorpus generates the seeded bench corpus: internal/benchcorpus's
// configuration with the run's seed.
func genCorpus(seed int64) (*dataset.Dataset, error) {
	cfg := benchcorpus.Config()
	cfg.Seed = seed
	return dataset.Generate(cfg)
}

// splitForIngest returns the base corpus (the first 80% of posts by
// timestamp) and the held-out posts the traced run ingests into it.
func splitForIngest(ds *dataset.Dataset) (*dataset.Dataset, []dataset.Post) {
	n := len(ds.Posts) * 8 / 10
	base := *ds
	base.Posts = ds.Posts[:n:n]
	return &base, ds.Posts[n:]
}

// withImageless merges the corpus's imageless posts into its image posts in
// timestamp order. The generator keeps only per-community counts of posts
// without images (they feed Table 1), so they are materialised here from the
// same seed: uniform times over the window, IDs after the image posts.
func withImageless(ds *dataset.Dataset, seed int64) []dataset.Post {
	cfg := benchcorpus.Config()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	window := ds.End.Sub(ds.Start)
	posts := append([]dataset.Post(nil), ds.Posts...)
	id := int64(len(ds.Posts))
	for _, c := range dataset.Communities() {
		for i := 0; i < cfg.PostsWithoutImages[c]; i++ {
			posts = append(posts, dataset.Post{
				ID:        id,
				Community: c,
				Timestamp: ds.Start.Add(time.Duration(rng.Int63n(int64(window)))),
				TruthMeme: -1,
				TruthRoot: -1,
			})
			id++
		}
	}
	sort.SliceStable(posts, func(i, j int) bool { return posts[i].Timestamp.Before(posts[j].Timestamp) })
	return posts
}

// imageFor renders the PNG a /v1/match/image request carries for a post:
// the template of the post's meme, or for a one-off post a template from a
// small pool keyed by its hash (one-off images have no rendered source).
type imageCache struct {
	ds    *dataset.Dataset
	size  int
	cache map[int64][]byte
}

func newImageCache(ds *dataset.Dataset) *imageCache {
	return &imageCache{ds: ds, size: benchcorpus.Config().ImageSize, cache: map[int64][]byte{}}
}

func (c *imageCache) png(p dataset.Post) ([]byte, error) {
	seed := int64(p.Hash%noiseImagePool) + 1<<40
	if p.TruthMeme >= 0 {
		seed = c.ds.Memes[p.TruthMeme].TemplateSeed
	}
	if b, ok := c.cache[seed]; ok {
		return b, nil
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, imaging.TemplateSized(seed, c.size, c.size)); err != nil {
		return nil, fmt.Errorf("encoding image: %w", err)
	}
	c.cache[seed] = buf.Bytes()
	return buf.Bytes(), nil
}

// matchBody is the JSON body of one /v1/match request.
func matchBody(h uint64) []byte {
	return []byte(fmt.Sprintf(`{"hash":"%016x"}`, h))
}

// postsBody is the JSON body of one /v1/associate request.
func postsBody(posts []dataset.Post) ([]byte, error) {
	return json.Marshal(struct {
		Posts []dataset.Post `json:"posts"`
	}{posts})
}

// batches cuts posts into consecutive batches of n (the last may be short).
func batches(posts []dataset.Post, n int) [][]dataset.Post {
	var out [][]dataset.Post
	for i := 0; i < len(posts); i += n {
		out = append(out, posts[i:min(i+n, len(posts))])
	}
	return out
}
