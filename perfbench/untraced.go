package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// A measured run is one set-up and then rounds rounds. Each round drives
// traffic against the running memeserve (a warm-up, the reference phase, a
// saturation phase), then times restarts and either a rebuild or, every
// setUpEvery-th round, a whole new set-up that the next rounds run on.
// Spreading every kind of measurement over the whole run lets each see the
// same mix of the shared host's fast and slow spells (see README.md).
const (
	rounds           = 12
	restartsPerRound = 2
	setUpEvery       = 4
)

// Traffic durations per round, as shares of --seconds.
const (
	warmShare = 0.005 // warm-up at the reference rate, not reported
	refShare  = 0.05  // reference phase
	satShare  = 0.02  // saturation phase
)

// tracedRounds is how many rounds' worth of reference traffic one pass of
// the traced run sends.
const tracedRounds = 6

// traffic is everything the load phases produced.
type traffic struct {
	prim    []*stream // reference phase streams
	sat     []*stream // saturation phase streams
	checked []*stream // every stream whose responses the oracle checks
}

func secondsOf(total int, share float64) time.Duration {
	return time.Duration(float64(total) * share * float64(time.Second))
}

func dialPair(addr string) ([]*conn, error) {
	var cs []*conn
	for i := 0; i < 2; i++ {
		c, err := dialConn(addr)
		if err != nil {
			for _, c := range cs {
				c.close()
			}
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// load yields the workload's requests. It moves through the inputs across
// phases and rounds, so later phases do not replay earlier ones.
type load struct {
	name string // stream name: the primary endpoint
	take func(n int, rate float64) ([]request, error)
}

func (b *bench) newLoad(s *system) (*load, error) {
	if b.workload == "lookup" {
		src := &lookupSource{posts: s.ds.Posts, imgs: newImageCache(s.ds)}
		return &load{name: "lookup", take: src.take}, nil
	}
	src, err := newBatchSource(epAssociate, batches(withImageless(s.ds, b.seed), bulkBatch))
	if err != nil {
		return nil, err
	}
	return &load{name: "associate", take: src.take}, nil
}

// phase sends one stream of the load over both connections and records it
// under kind. A saturation phase sends back to back for d; any other phase
// sends at rate for d.
func (b *bench) phase(tr *traffic, l *load, conns []*conn, kind string, rate float64, d time.Duration) error {
	n := max(1, int(rate*d.Seconds()))
	send := rate
	if kind == "saturation" {
		send = math.Inf(1) // every request is due at the start
	}
	reqs, err := l.take(n, send)
	if err != nil {
		return err
	}
	st := newStream(l.name, reqs, conns...)
	if kind == "saturation" {
		st.until = d
	}
	if b.tracer != nil {
		// The phase index keeps request ids unique across the run.
		st.name = fmt.Sprintf("%s%d-%s", kind, len(b.rec.Phases), st.name)
		st.tag()
	}
	runPhase(st)
	b.rec.count(kind, st)
	addTally(b.tally, st)
	rec := phaseRec{Name: kind, Rate: send, Streams: []streamSummary{summarize(st)}}
	switch kind {
	case "reference":
		rec.Latency = latencyDump(st)
		tr.prim = append(tr.prim, st)
	case "saturation":
		rec.Rate = 0
		rec.Completed = windowRates([]*stream{st})
		tr.sat = append(tr.sat, st)
	}
	ss := rec.Streams[0]
	fmt.Fprintf(os.Stderr, "perfbench: %-10s %-10s rate %8.1f/s  sent %6d failed %4d  p50 %8.3fms p99 %8.3fms lag p99 %6.3fms\n",
		kind, ss.Name, rec.Rate, ss.Requests, ss.Failed, ss.P50MS, ss.P99MS, ss.LagP99MS)
	b.rec.Phases = append(b.rec.Phases, rec)
	tr.checked = append(tr.checked, st)
	time.Sleep(100 * time.Millisecond) // let queues drain between phases
	return nil
}

// drive sends a warm-up and then the reference phase, of refRounds rounds'
// length, to addr; with saturate, a saturation phase follows.
func (b *bench) drive(l *load, addr string, refRounds int, saturate bool) (*traffic, error) {
	sp := specs[b.workload]
	conns, err := dialPair(addr)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	tr := &traffic{}
	if err := b.phase(tr, l, conns, "warmup", sp.refRate, secondsOf(b.seconds, warmShare)); err != nil {
		return nil, err
	}
	if err := b.phase(tr, l, conns, "reference", sp.refRate, secondsOf(b.seconds, refShare*float64(refRounds))); err != nil {
		return nil, err
	}
	if saturate {
		// At least two windows past the ramp-up, however short the run.
		d := max(secondsOf(b.seconds, satShare), 3*rateWindow)
		if err := b.phase(tr, l, conns, "saturation", sp.satRate, d); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// summarize condenses a stream for the record.
func summarize(s *stream) streamSummary {
	lat := latencies(s, "")
	var lag []time.Duration
	failed := 0
	for _, o := range s.out {
		if o.lag >= 0 {
			lag = append(lag, o.lag)
		}
		if !o.ok() {
			failed++
		}
	}
	sortDur(lag)
	return streamSummary{
		Name: s.name, Requests: len(s.out), Failed: failed,
		P50MS: finite(ms(quantile(lat, 0.5))), P99MS: finite(ms(quantile(lat, 0.99))), LagP99MS: ms(quantile(lag, 0.99)),
	}
}

// latencyDump lists every latency of the stream by endpoint, in µs, with
// -1 for a failed request.
func latencyDump(s *stream) map[string][]int {
	out := map[string][]int{}
	for i, o := range s.out {
		v := -1
		if o.ok() {
			v = int(o.latency / time.Microsecond)
		}
		k := string(s.reqs[i].ep)
		out[k] = append(out[k], v)
	}
	return out
}

// frontAddr is where clients connect: memeserve itself, or the slow proxy
// started in front of it for the planted-regression check.
func (b *bench) frontAddr(s *system) (string, error) {
	if b.plant == "" {
		return s.addr, nil
	}
	return b.startProxy(s)
}

// runUntraced is the measured run: set up, then the rounds, each checked
// against the oracle outside its timed windows.
func (b *bench) runUntraced() (map[string]metric, error) {
	sp := specs[b.workload]
	s, err := b.setUpTimed(0)
	if err != nil {
		return nil, err
	}
	defer func() { b.stopAll(s) }()
	l, err := b.newLoad(s)
	if err != nil {
		return nil, err
	}
	o, err := b.newOracle(s)
	if err != nil {
		return nil, err
	}
	defer o.close()
	var prim, sat []*stream
	bodies := map[string][]byte{}
	for i := 0; i < rounds; i++ {
		b.tally = map[endpoint]*tally{}
		addr, err := b.frontAddr(s)
		if err != nil {
			return nil, err
		}
		tr, err := b.drive(l, addr, 1, true)
		if err != nil {
			return nil, err
		}
		b.stopProxy()
		rss, err := s.srv.rssMB()
		if err != nil {
			return nil, err
		}
		b.rec.sample("rss_mb", rss)
		if err := b.endEpoch(s); err != nil {
			return nil, err
		}
		if i == 0 {
			if err := b.influence(s, bodies); err != nil {
				return nil, err
			}
		}
		for j := 0; j < restartsPerRound; j++ {
			d, err := b.restart(s)
			if err != nil {
				return nil, err
			}
			b.rec.sample("restart_ready_s", d.Seconds())
		}
		syscall.Sync() // as before a restart: no writeback during the timed work
		if i%setUpEvery == setUpEvery-1 {
			if err := s.srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping memeserve: %w", err)
			}
			if s, err = b.setUpTimed(i/setUpEvery + 1); err != nil {
				return nil, err
			}
		} else {
			d, err := runTool(b.tool("memepipeline"), []string{"-in", s.corpusDir, "-save", filepath.Join(s.dir, "again.snap")}, filepath.Join(s.dir, "again.log"))
			if err != nil {
				return nil, err
			}
			b.rec.sample("build_s", d.Seconds())
		}
		if err := o.check(tr.checked); err != nil {
			return nil, err
		}
		prim, sat = append(prim, tr.prim...), append(sat, tr.sat...)
		// Collect the round's garbage now, so the generator's collector
		// does not run inside the next round's timings.
		runtime.GC()
	}
	if err := s.srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping memeserve: %w", err)
	}
	o.properties(b.rec.Properties)
	if err := b.verifyInfluence(s, bodies); err != nil {
		return nil, err
	}

	// The timings are the best sample of the run: the shared host's slow
	// spells only ever slow a sample down, while a slower program slows
	// every sample, the best one too. setup_s and rss_mb are medians.
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(b.rec.Samples["setup_s"]))
	put("build_s", "s", slices.Min(b.rec.Samples["build_s"]))
	put("restart_ready_s", "s", slices.Min(b.rec.Samples["restart_ready_s"]))
	put("rss_mb", "MiB", median(b.rec.Samples["rss_mb"]))
	p50s := windowQuantiles(prim, sp.primary, 0.5)
	put("p50_ms", "ms", slices.Min(p50s))
	rates := windowRates(sat)
	put("capacity_rps", "1/s", slices.Max(rates))
	b.rec.Samples["p50_ms.windows"] = p50s
	b.rec.Samples["capacity_rps.windows"] = rates
	// The tails are recorded but not reported: on a shared machine they
	// follow its stalls more than the program (see README.md).
	for name, v := range tails(prim, sp) {
		b.rec.sample(name, v)
	}
	return m, nil
}

// tails are the median over windows of the p99 latencies of the primary
// request and of /v1/match/image (0 for bulk, which sends no images).
func tails(prim []*stream, sp spec) map[string]float64 {
	return map[string]float64{
		"p99_ms":       median(windowQuantiles(prim, sp.primary, 0.99)),
		"image_p99_ms": median(windowQuantiles(prim, epImage, 0.99)),
	}
}

// stopAll stops whatever is still running on an early return.
func (b *bench) stopAll(s *system) {
	b.stopProxy()
	if s != nil && s.srv != nil {
		s.srv.kill()
	}
}

var influenceGroups = []string{"all", "racist", "politics"}

// influence fits the §5 Hawkes model once per group through /v1/influence
// and keeps the bodies for the oracle. The time of the three calls is
// recorded, not reported: about 0.3 s together follows the host more than
// the program.
func (b *bench) influence(s *system, bodies map[string][]byte) error {
	t := b.tallyFor("analysis", "influence")
	sum := 0.0
	for _, g := range influenceGroups {
		t0 := time.Now()
		st, body, err := httpDo(s.addr, http.MethodPost, "/v1/influence", []byte(`{"group":"`+g+`"}`), 170*time.Second)
		el := time.Since(t0)
		t.Sent++
		if err != nil || st != http.StatusOK {
			t.Failed[failReason(err, body)]++
			return fmt.Errorf("/v1/influence %s: status %d: %v", g, st, err)
		}
		t.Succeeded++
		sum += el.Seconds()
		bodies[g] = body
	}
	b.rec.sample("influence_s", sum)
	return nil
}

func failReason(err error, body []byte) string {
	if err != nil {
		return "transport"
	}
	return errorReason(body)
}

func (b *bench) tallyFor(kind string, ep endpoint) *tally {
	m := b.rec.Counts[kind]
	if m == nil {
		m = map[endpoint]*tally{}
		b.rec.Counts[kind] = m
	}
	if m[ep] == nil {
		m[ep] = &tally{Failed: map[string]int{}}
	}
	return m[ep]
}
