package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/analysis"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/declog"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/server"
)

// The traced run reports where the time went. It has three parts, none of
// which feed the end-to-end figures:
//
//  1. the workload's reference pass against the memeserve binary, for the
//     server's own counters (/v1/statsz) and CPU (/proc/<pid>/stat);
//  2. the same pass three times against server.New(...).Handler() hosted
//     in this process: bare, traced, bare. The traced pass puts the
//     handler behind a wrapper that records a handler span per request,
//     joined by request id to the client's request span, and the decision
//     log behind a timing sink; the bare passes around it give the cost of
//     that tracing;
//  3. the workload's inputs replayed into each layer's public functions,
//     each call timed from outside.

// span is one timed interval; spans of one request share its id.
type span struct {
	ID     string  `json:"id"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Count  int     `json:"count,omitempty"` // replayed calls a layer span covers
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	layers int // layer spans so far, numbering their ids
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// wrap records a handler span around every request the server handles.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		id := r.Header.Get("X-Bench-Id")
		t.add(span{ID: id, Name: "handler", Parent: id, Start: t.us(start), End: t.us(time.Now())})
	})
}

// layer times one replayed layer call (or loop of calls) as a span.
func (t *tracer) layer(name string, count int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.layers++
	t.add(span{ID: fmt.Sprintf("%s-%d", name, t.layers), Name: name, Start: t.us(start), End: t.us(end), Count: count})
	return end.Sub(start), err
}

// timingSink times every decision-log upload.
type timingSink struct {
	inner   declog.Sink
	batches atomic.Int64
	nanos   atomic.Int64
}

func (s *timingSink) Upload(ctx context.Context, batch []declog.Decision) error {
	t := time.Now()
	err := s.inner.Upload(ctx, batch)
	s.nanos.Add(int64(time.Since(t)))
	s.batches.Add(1)
	return err
}

// buildReps is how often the traced run repeats the neighbourhood scan and
// DBSCAN per community; it reports their medians.
const buildReps = 3

// perLayer collects the traced run's metrics.
type perLayer map[string]metric

func (p perLayer) put(name, unit string, v float64) { p[name] = metric{Value: v, Unit: unit} }

func (b *bench) runTraced() (map[string]metric, error) {
	ctx := context.Background()
	m := perLayer{}
	s, err := b.setUp(0)
	if err != nil {
		return nil, err
	}
	defer b.stopAll(s)
	b.tally = map[endpoint]*tally{}
	site, err := s.ds.Site(true)
	if err != nil {
		return nil, err
	}

	o, err := b.newOracle(s)
	if err != nil {
		return nil, err
	}
	defer o.close()

	// Part 1: the binary.
	pid := s.srv.cmd.Process.Pid
	srvCPU0, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	genCPU0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	l, err := b.newLoad(s)
	if err != nil {
		return nil, err
	}
	untraced, err := b.drive(l, s.addr, tracedRounds, false)
	if err != nil {
		return nil, err
	}
	srvCPU1, _ := cpuTime(pid)
	genCPU1, _ := cpuTime(os.Getpid())
	var stz server.StatsDoc
	if _, body, err := httpGet(s.addr, "/v1/statsz", 10*time.Second); err != nil || json.Unmarshal(body, &stz) != nil {
		return nil, fmt.Errorf("reading /v1/statsz: %v", err)
	}
	if err := b.endEpoch(s); err != nil {
		return nil, err
	}
	sent, lag := 0, []time.Duration{}
	for _, st := range untraced.checked {
		sent += len(st.out)
		for _, o := range st.out {
			if o.lag >= 0 {
				lag = append(lag, o.lag)
			}
		}
	}
	if err := o.check(untraced.checked); err != nil {
		return nil, err
	}
	if err := s.srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping memeserve: %w", err)
	}
	s.srv = nil
	sortDur(lag)
	m.put("loadgen.lag_p99_ms", "ms", ms(quantile(lag, 0.99)))
	m.put("loadgen.cpu_s", "s", (genCPU1 - genCPU0).Seconds())
	m.put("server.cpu_us_per_req", "us", float64((srvCPU1-srvCPU0)/time.Microsecond)/float64(max(sent, 1)))
	m.put("server.shed", "count", float64(stz.Overload.Shed))
	m.put("server.timeouts", "count", float64(stz.Overload.Timeouts))
	m.put("batcher.batches", "count", float64(stz.Batcher.Batches))
	m.put("batcher.mean_batch", "count", float64(stz.Batcher.BatchedRequests)/float64(max(stz.Batcher.Batches, 1)))
	m.put("batcher.largest_batch", "count", float64(stz.Batcher.LargestBatch))
	sp := specs[b.workload]
	for name, v := range tails(untraced.prim, sp) {
		m.put("tail."+name, "ms", v)
	}
	b.rec.sample("binary_p50_ms", median(windowQuantiles(untraced.prim, sp.primary, 0.5)))

	// Part 2: the handler in process, bare around traced.
	tc := &tracer{t0: time.Now()}
	var bare []*stream
	var traced *hosted
	for _, on := range []bool{false, true, false} {
		h, err := b.hostPass(s, site, o, on, tc)
		if err != nil {
			return nil, err
		}
		if on {
			traced = h
		} else {
			bare = append(bare, h.tr.prim...)
		}
	}
	b.tracer = tc
	b.traceFigures(traced, bare, m)

	// Part 3: the layers.
	if err := b.replayLayers(ctx, s, site, m); err != nil {
		return nil, err
	}
	b.rec.Spans = b.tracer.spans
	return m, nil
}

// hosted is what one in-process pass observed.
type hosted struct {
	tr      *traffic
	log     declog.Stats
	sink    *timingSink
	gc      uint32 // collections during the pass
	pauseNS uint64 // their total pause
}

// hostPass hosts server.New(...).Handler() in this process on the system's
// snapshot and drives the workload's reference pass against it. When
// traced, the handler sits behind tc's wrapper, requests carry their ids
// and the decision log's sink is timed; otherwise both run bare.
func (b *bench) hostPass(s *system, site *memes.AnnotationSite, o *oracle, traced bool, tc *tracer) (*hosted, error) {
	dir, err := os.MkdirTemp(s.dir, "inproc")
	if err != nil {
		return nil, err
	}
	fsink, err := declog.NewFileSink(filepath.Join(dir, "decisions.ndjson"))
	if err != nil {
		return nil, err
	}
	h := &hosted{}
	var sink declog.Sink = fsink
	if traced {
		h.sink = &timingSink{inner: fsink}
		sink = h.sink
	}
	logger, err := declog.New(declog.Config{Sink: sink, FlushInterval: time.Second})
	if err != nil {
		fsink.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{
		Loader: func() (*memes.Engine, error) {
			return memes.LoadEngineFile(s.snap, site, memes.WithDataset(s.ds))
		},
		DecisionLog: logger,
	})
	if err != nil {
		logger.Close()
		fsink.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		logger.Close()
		fsink.Close()
		return nil, err
	}
	handler := srv.Handler()
	b.tracer = nil
	if traced {
		handler, b.tracer = tc.wrap(handler), tc
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var tr *traffic
	l, derr := b.newLoad(s)
	if derr == nil {
		tr, derr = b.drive(l, ln.Addr().String(), tracedRounds, false)
	}
	runtime.ReadMemStats(&ms1)
	b.tracer = nil

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	serr := hs.Shutdown(shutdownCtx)
	<-served
	srv.Close()
	logger.Close()
	cerr := fsink.Close()
	b.tally = map[endpoint]*tally{}
	switch {
	case derr != nil:
		return nil, derr
	case serr != nil:
		return nil, serr
	case cerr != nil:
		return nil, cerr
	}
	if err := o.check(tr.checked); err != nil {
		return nil, err
	}
	h.tr, h.log = tr, logger.Stats()
	h.gc, h.pauseNS = ms1.NumGC-ms0.NumGC, ms1.PauseTotalNs-ms0.PauseTotalNs
	return h, nil
}

// traceFigures joins the traced pass's request and handler spans by id and
// reports the server, decision-log, runtime and tracing-cost figures. Only
// reference-phase requests of the primary endpoint feed the handler and
// transport quantiles; every request gets its span in the record.
func (b *bench) traceFigures(traced *hosted, bare []*stream, m perLayer) {
	t := b.tracer
	handlers := map[string]span{}
	for _, sp := range t.spans {
		if sp.Name == "handler" {
			handlers[sp.ID] = sp
		}
	}
	ref := map[*stream]bool{}
	for _, st := range traced.tr.prim {
		ref[st] = true
	}
	prim := specs[b.workload].primary
	var hd, transport []time.Duration
	for _, st := range traced.tr.checked {
		for i, o := range st.out {
			id := st.id(i)
			start := st.start.Add(st.reqs[i].at)
			t.add(span{ID: id, Name: "request", Start: t.us(start), End: t.us(start.Add(o.latency))})
			h, ok := handlers[id]
			if !ok || !ref[st] || st.reqs[i].ep != prim || !o.ok() {
				continue
			}
			d := time.Duration((h.End - h.Start) * float64(time.Microsecond))
			hd = append(hd, d)
			// The request's self time: its span minus the handler span inside it.
			transport = append(transport, o.latency-d)
		}
	}
	sortDur(hd)
	sortDur(transport)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	m.put("server.handler_p50_us", "us", us(quantile(hd, 0.5)))
	m.put("server.handler_p99_us", "us", us(quantile(hd, 0.99)))
	m.put("server.transport_p50_us", "us", us(quantile(transport, 0.5)))
	sink := traced.sink
	m.put("declog.logged", "count", float64(traced.log.Logged))
	m.put("declog.dropped", "count", float64(traced.log.Dropped))
	m.put("declog.batches", "count", float64(sink.batches.Load()))
	m.put("declog.upload_ms_per_batch", "ms", float64(sink.nanos.Load())/1e6/float64(max(sink.batches.Load(), 1)))
	m.put("runtime.gc_cycles", "count", float64(traced.gc))
	m.put("runtime.gc_pause_ms", "ms", float64(traced.pauseNS)/1e6)
	tracedP50 := median(windowQuantiles(traced.tr.prim, prim, 0.5))
	bareP50 := median(windowQuantiles(bare, prim, 0.5))
	m.put("trace.overhead_pct", "%", 100*(tracedP50-bareP50)/bareP50)
	b.rec.sample("inprocess_traced_p50_ms", tracedP50)
	b.rec.sample("inprocess_bare_p50_ms", bareP50)
}

// replayLayers times each layer's public functions on the workload's own
// inputs.
func (b *bench) replayLayers(ctx context.Context, s *system, site *memes.AnnotationSite, m perLayer) error {
	t := b.tracer
	cfg := pipeline.DefaultConfig()
	workers := runtime.GOMAXPROCS(0)

	// Build path, Steps 2-5 per fringe community, as the pipeline runs them.
	var ds *dataset.Dataset
	d, err := t.layer("build.corpus_load", 1, func() (err error) { ds, err = dataset.Load(s.corpusDir); return err })
	if err != nil {
		return err
	}
	m.put("build.corpus_load_s", "s", d.Seconds())
	var neigh, dbscan float64
	var medoids time.Duration
	pairs := 0
	var medoidHashes []phash.Hash
	for _, comm := range dataset.Communities() {
		if !comm.Fringe() {
			continue
		}
		hashes, counts := distinctHashes(ds, comm)
		if len(hashes) == 0 {
			continue
		}
		// The scan and DBSCAN (which repeats the scan, then expands) run
		// buildReps times each, alternating; their medians are compared.
		var nd, dd []float64
		var res cluster.Result
		for rep := 0; rep < buildReps; rep++ {
			d, err := t.layer("phash.NeighbourhoodsCtx", len(hashes), func() error {
				lists, err := phash.NeighbourhoodsCtx(ctx, hashes, cfg.Clustering.Eps, workers)
				if rep == 0 {
					for _, l := range lists {
						pairs += len(l)
					}
				}
				return err
			})
			if err != nil {
				return err
			}
			nd = append(nd, d.Seconds())
			d, err = t.layer("cluster.DBSCANCtx", len(hashes), func() (err error) {
				res, err = cluster.DBSCANCtx(ctx, hashes, counts, cfg.Clustering)
				return err
			})
			if err != nil {
				return err
			}
			dd = append(dd, d.Seconds())
		}
		neigh += median(nd)
		dbscan += median(dd)
		var cs []cluster.Cluster
		d, _ = t.layer("cluster.MaterializeParallel", res.NumClusters, func() error {
			cs = cluster.MaterializeParallel(hashes, counts, res, workers)
			return nil
		})
		medoids += d
		for _, c := range cs {
			medoidHashes = append(medoidHashes, c.MedoidHash)
		}
	}
	m.put("build.neighbours_s", "s", neigh)
	m.put("build.neighbour_pairs", "count", float64(pairs))
	m.put("build.expand_s", "s", dbscan-neigh)
	m.put("build.medoids_s", "s", medoids.Seconds())
	d, _ = t.layer("annotate.Site.AnnotateBatch", len(medoidHashes), func() error {
		site.AnnotateBatch(medoidHashes, cfg.AnnotationThreshold, workers)
		return nil
	})
	m.put("build.annotate_s", "s", d.Seconds())

	built, err := memes.NewEngine(ctx, ds, site)
	if err != nil {
		return err
	}
	snap := filepath.Join(s.dir, "replay.snap")
	f, err := os.Create(snap)
	if err != nil {
		return err
	}
	d, err = t.layer("memes.Engine.Save", 1, func() error { return built.Save(f) })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m.put("build.snapshot_save_s", "s", d.Seconds())
	var loads []float64
	var eng *memes.Engine
	for i := 0; i < 5; i++ {
		if eng != nil {
			eng.Close()
		}
		d, err := t.layer("memes.LoadEngineFile", 1, func() (err error) {
			eng, err = memes.LoadEngineFile(snap, site, memes.WithDataset(ds))
			return err
		})
		if err != nil {
			return err
		}
		loads = append(loads, float64(d)/float64(time.Millisecond))
	}
	defer eng.Close()
	m.put("build.snapshot_load_ms", "ms", median(loads))
	d, err = t.layer("memes.Engine.Associate", len(ds.Posts), func() error {
		_, err := eng.Associate(ctx, ds.Posts)
		return err
	})
	if err != nil {
		return err
	}
	m.put("build.associate_s", "s", d.Seconds())

	// Serve path: the workload's own lookups and batches.
	sp := specs[b.workload]
	posts := s.ds.Posts
	if b.workload == "bulk" {
		posts = withImageless(s.ds, b.seed)
	}
	var hashes []memes.Hash
	for _, p := range posts {
		if p.HasImage {
			hashes = append(hashes, memes.Hash(p.Hash))
		}
	}
	hits := 0
	for _, h := range hashes { // warm the pooled scratch
		_, _, _ = eng.Match(ctx, h)
	}
	d, err = t.layer("memes.Engine.Match", len(hashes), func() error {
		for _, h := range hashes {
			_, ok, err := eng.Match(ctx, h)
			if err != nil {
				return err
			}
			if ok {
				hits++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("engine.match_ns", "ns", float64(d)/float64(len(hashes)))
	m.put("engine.hit_ratio", "ratio", float64(hits)/float64(len(hashes)))
	i := 0
	m.put("engine.allocs_per_op", "count", testing.AllocsPerRun(2000, func() {
		_, _, _ = eng.Match(ctx, hashes[i%len(hashes)])
		i++
	}))
	var out []memes.Association
	bs := batches(posts, sp.postsPerReq)
	d, err = t.layer("memes.Engine.AssociateAppend", len(posts), func() (err error) {
		for _, batch := range bs {
			if out, err = eng.AssociateAppend(ctx, batch, out[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("engine.associate_ns_per_post", "ns", float64(d)/float64(len(posts)))

	// Step 1 on the serve path: the images the workload sends.
	imgs := newImageCache(s.ds)
	var pngs [][]byte
	for j, p := range s.ds.Posts {
		if (j+1)%imageEvery == 0 && len(pngs) < 200 {
			png, err := imgs.png(p)
			if err != nil {
				return err
			}
			pngs = append(pngs, png)
		}
	}
	var decoded []image.Image
	d, err = t.layer("image.Decode", len(pngs), func() error {
		for _, p := range pngs {
			img, _, err := image.Decode(bytes.NewReader(p))
			if err != nil {
				return err
			}
			decoded = append(decoded, img)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("phash.decode_us", "us", float64(d)/float64(time.Microsecond)/float64(len(pngs)))
	d, err = t.layer("memes.HashImage", len(decoded), func() error {
		for _, img := range decoded {
			if _, err := memes.HashImage(img); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("phash.hash_us", "us", float64(d)/float64(time.Microsecond)/float64(len(decoded)))

	if err := b.replayIngest(ctx, s, site, m); err != nil {
		return err
	}

	// §5 and the report, over the same engine's full result.
	res, err := eng.TryResult()
	if err != nil {
		return err
	}
	for _, g := range []struct {
		name  string
		group memes.MemeGroup
	}{{"all", memes.AllMemes}, {"racist", memes.RacistMemes}, {"politics", memes.PoliticalMemes}} {
		d, err := t.layer("memes.EstimateInfluence."+g.name, 1, func() error {
			_, err := memes.EstimateInfluence(res, g.group)
			return err
		})
		if err != nil {
			return err
		}
		m.put("hawkes.influence_s."+g.name, "s", d.Seconds())
	}
	rep, err := analysis.NewReport(res)
	if err != nil {
		return err
	}
	named := map[string]func() (string, error){
		"analysis.table8_s": rep.RenderTable8,
		"analysis.fig17_s":  rep.RenderFigure17,
		"analysis.fig19_s":  rep.RenderFigure19,
	}
	others := []func() (string, error){
		rep.RenderTable1, rep.RenderTable2, rep.RenderTable3, rep.RenderTable4, rep.RenderTable5,
		rep.RenderTable6, rep.RenderTable7, rep.RenderTable9, rep.RenderFigure3, rep.RenderFigure4,
		rep.RenderFigure5, rep.RenderFigure6, rep.RenderFigure7, rep.RenderFigure8, rep.RenderFigure9,
		rep.RenderFigure10, rep.RenderInfluenceAll, rep.RenderInfluenceRacist, rep.RenderInfluencePolitical,
		rep.RenderAppendixB,
	}
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d, err := t.layer("analysis.Report."+n, 1, func() error { _, err := named[n](); return err })
		if err != nil {
			return err
		}
		m.put(n, "s", d.Seconds())
	}
	d, err = t.layer("analysis.Report.other_sections", len(others), func() error {
		for _, f := range others {
			if _, err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("analysis.other_sections_s", "s", d.Seconds())
	return nil
}

// replayIngest splits the seed's corpus 80/20 by timestamp, builds a
// snapshot over the first part and feeds the held-out posts to an Ingestor
// over it in batches, running each re-cluster synchronously when the pool
// reaches the server's threshold so it can be timed; then it times a
// Replay of the journal on a fresh Ingestor.
func (b *bench) replayIngest(ctx context.Context, s *system, site *memes.AnnotationSite, m perLayer) error {
	t := b.tracer
	base, held := splitForIngest(s.ds)
	eng, err := memes.NewEngine(ctx, base, site)
	if err != nil {
		return err
	}
	defer eng.Close()
	baseSnap := filepath.Join(s.dir, "ingest-base.snap")
	f, err := os.Create(baseSnap)
	if err != nil {
		return err
	}
	err = eng.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	dir := filepath.Join(s.dir, "replay-deltas")
	open := func() (*memes.Ingestor, uint64, error) {
		snap, seq := baseSnap, uint64(0)
		if p, q, ok, err := memes.LatestDeltaBase(dir); err != nil {
			return nil, 0, err
		} else if ok {
			snap, seq = p, q
		}
		eng, err := memes.LoadEngineFile(snap, site)
		if err != nil {
			return nil, 0, err
		}
		// The threshold is out of reach so re-clusters run only when this
		// replay calls Recluster, at the server's threshold.
		g, err := memes.NewIngestor(memes.NewHotEngine(eng), base, site, memes.IngestConfig{
			Threshold: 1 << 30, MaxPending: 8 * ingestThreshold, DeltaDir: dir,
		})
		return g, seq, err
	}
	g, _, err := open()
	if err != nil {
		return err
	}
	var per, rc []float64
	accepted, assigned := 0, 0
	for _, batch := range batches(held, ingestBatch) {
		var r memes.IngestReceipt
		d, err := t.layer("memes.Ingestor.Ingest", len(batch), func() (err error) { r, err = g.Ingest(ctx, batch); return err })
		if err != nil {
			g.Close()
			return err
		}
		per = append(per, float64(d)/float64(time.Microsecond))
		accepted += r.Accepted
		assigned += r.Assigned
		if r.Pending >= ingestThreshold {
			d, err := t.layer("memes.Ingestor.Recluster", r.Pending, func() error { return g.Recluster(ctx) })
			if err != nil {
				g.Close()
				return err
			}
			rc = append(rc, float64(d)/float64(time.Millisecond))
		}
	}
	st := g.Stats()
	if err := g.Close(); err != nil {
		return err
	}
	m.put("ingest.ingest_us_per_batch", "us", median(per))
	m.put("ingest.recluster_ms", "ms", median(rc))
	m.put("ingest.reclusters", "count", float64(st.Reclusters))
	m.put("ingest.compactions", "count", float64(st.Compactions))
	m.put("ingest.rejected", "count", float64(st.Rejected))
	m.put("ingest.assigned_ratio", "ratio", float64(assigned)/float64(max(accepted, 1)))

	g, seq, err := open()
	if err != nil {
		return err
	}
	d, err := t.layer("memes.Ingestor.Replay", int(st.Seq-seq), func() error { _, err := g.Replay(ctx, seq); return err })
	if cerr := g.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m.put("ingest.replay_ms", "ms", float64(d)/float64(time.Millisecond))
	return nil
}

// distinctHashes is a community's distinct image hashes and their counts
// in post order: the input the pipeline hands to DBSCAN.
func distinctHashes(ds *dataset.Dataset, comm dataset.Community) ([]phash.Hash, []int) {
	var hashes []phash.Hash
	var counts []int
	at := map[phash.Hash]int{}
	for _, p := range ds.Posts {
		if !p.HasImage || p.Community != comm {
			continue
		}
		h := p.PHash()
		if i, ok := at[h]; ok {
			counts[i]++
			continue
		}
		at[h] = len(hashes)
		hashes = append(hashes, h)
		counts = append(counts, 1)
	}
	return hashes, counts
}
