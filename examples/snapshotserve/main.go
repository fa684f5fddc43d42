// Snapshotserve: the build-once / serve-forever workflow. The expensive
// Steps 2-5 build runs once and is saved as a versioned binary snapshot; a
// second "serving process" (here, the same program a moment later) loads
// the snapshot — skipping Steps 2-5 entirely — and answers queries
// identical to the original engine's.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/memes-pipeline/memes"
)

func main() {
	ctx := context.Background()

	// 1. The build box: generate a corpus and run the expensive build phase
	//    (Steps 2-5) once.
	ds, err := memes.GenerateDataset(memes.SmallDatasetConfig())
	if err != nil {
		log.Fatalf("generating dataset: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		log.Fatalf("building annotation site: %v", err)
	}
	eng, err := memes.NewEngine(ctx, ds, site)
	if err != nil {
		log.Fatalf("building engine: %v", err)
	}
	fmt.Printf("built engine: %d clusters from %d posts\n", len(eng.Clusters()), len(ds.Posts))

	// 2. Ship the snapshot. Only the Steps 2-5 artifact is persisted — the
	//    Step 6 medoid scan is rebuilt from the cluster table on load, so
	//    the file is small.
	path := filepath.Join(os.TempDir(), "memes-engine.snap")
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating snapshot: %v", err)
	}
	if err := eng.Save(f); err != nil {
		log.Fatalf("saving engine: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("closing snapshot: %v", err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("snapshot: %d bytes at %s\n", st.Size(), path)

	// 3. The serving box: load the snapshot with the annotation site. No
	//    clustering or annotation runs — the progress stream shows a single
	//    "load" stage.
	r, err := os.Open(path)
	if err != nil {
		log.Fatalf("opening snapshot: %v", err)
	}
	defer r.Close()
	served, err := memes.LoadEngine(r, site,
		memes.WithProgress(func(ev memes.StageEvent) {
			if ev.Done {
				fmt.Printf("load stage %q: %d clusters in %v\n", ev.Stage, ev.Items, ev.Duration)
			}
		}))
	if err != nil {
		log.Fatalf("loading engine: %v", err)
	}

	// 4. Serve: associate a fresh batch and answer a single-image lookup,
	//    exactly as the original engine would.
	batch, err := served.Associate(ctx, ds.Posts[:200])
	if err != nil {
		log.Fatalf("associating: %v", err)
	}
	orig, err := eng.Associate(ctx, ds.Posts[:200])
	if err != nil {
		log.Fatalf("associating on original: %v", err)
	}
	fmt.Printf("served %d associations for 200 posts (original engine: %d — identical by construction)\n",
		len(batch), len(orig))
	for _, c := range served.Clusters() {
		if c.Annotated() {
			m, ok, err := served.Match(ctx, c.MedoidHash)
			if err != nil || !ok {
				log.Fatalf("match: (%v, %v)", ok, err)
			}
			fmt.Printf("single-image lookup on a medoid: cluster %d (%s) at distance %d\n",
				m.ClusterID, c.EntryName(), m.Distance)
			break
		}
	}
}
