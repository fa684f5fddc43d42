package main

import (
	"math"
	"sort"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
)

// spec fixes one workload's traffic: the primary request, the reference
// rate its latency is reported at, and the rate at which requests are
// supplied to a saturation phase (far above what the server completes, so
// the supply never runs out before the phase ends).
type spec struct {
	primary     endpoint
	postsPerReq int
	refRate     float64 // primary requests/s at the reference rate
	satRate     float64 // requests/s prepared per second of saturation
}

// The reference rates are about a quarter (lookup) and a sixth (bulk) of
// the saturated rate measured on a 2-vCPU VM, so latency there is service
// time and not queueing.
var specs = map[string]spec{
	"lookup": {primary: epMatch, postsPerReq: 1, refRate: 4000, satRate: 40000},
	"bulk":   {primary: epAssociate, postsPerReq: bulkBatch, refRate: 150, satRate: 3000},
}

// benchHost is the Host header of every generated request; memeserve
// does not route on it, so one value serves every address.
const benchHost = "memeserve"

// lookupSource yields /v1/match requests over the corpus's image-post
// hashes in timestamp order, every imageEvery-th one as /v1/match/image.
type lookupSource struct {
	posts []dataset.Post
	imgs  *imageCache
	pos   int
}

func (l *lookupSource) take(n int, rate float64) ([]request, error) {
	out := make([]request, n)
	for j, at := range schedule(n, rate) {
		ref := l.pos % len(l.posts)
		l.pos++
		r := request{ep: epMatch, at: at, ref: ref}
		if l.pos%imageEvery == 0 {
			img, err := l.imgs.png(l.posts[ref])
			if err != nil {
				return nil, err
			}
			r.ep, r.wire = epImage, buildWire(epImage, img)
		} else {
			r.wire = buildWire(epMatch, matchBody(l.posts[ref].Hash))
		}
		out[j] = r
	}
	return out, nil
}

// batchSource yields one request per pre-encoded post batch, in order,
// starting over at the end.
type batchSource struct {
	ep     endpoint
	bodies [][]byte
	pos    int
}

func newBatchSource(ep endpoint, bs [][]dataset.Post) (*batchSource, error) {
	src := &batchSource{ep: ep}
	for _, b := range bs {
		body, err := postsBody(b)
		if err != nil {
			return nil, err
		}
		src.bodies = append(src.bodies, body)
	}
	return src, nil
}

func (s *batchSource) take(n int, rate float64) ([]request, error) {
	out := make([]request, n)
	for j, at := range schedule(n, rate) {
		ref := s.pos % len(s.bodies)
		s.pos++
		out[j] = request{ep: s.ep, at: at, ref: ref, wire: buildWire(s.ep, s.bodies[ref])}
	}
	return out, nil
}

// latencyWindow is the span of intended send times that one latency
// quantile is taken over: short enough to fall inside one of the shared
// host's fast or slow spells, which last seconds.
const latencyWindow = 250 * time.Millisecond

// windowQuantiles splits each stream's requests of one endpoint (all when
// ep is empty) into windows of latencyWindow by intended send time and
// returns every window's q-quantile, in ms. A failed request counts as
// infinitely slow. The tail of a stream shorter than a window joins its
// last window.
func windowQuantiles(ss []*stream, ep endpoint, q float64) []float64 {
	var per []float64
	for _, s := range ss {
		if len(s.reqs) == 0 {
			continue
		}
		n := max(1, int(s.reqs[len(s.reqs)-1].at/latencyWindow))
		lat := make([][]time.Duration, n)
		for i := range s.out {
			if ep != "" && s.reqs[i].ep != ep {
				continue
			}
			k := min(n-1, int(s.reqs[i].at/latencyWindow))
			d := time.Duration(math.MaxInt64)
			if s.out[i].ok() {
				d = s.out[i].latency
			}
			lat[k] = append(lat[k], d)
		}
		for _, w := range lat {
			if len(w) > 0 {
				sortDur(w)
				per = append(per, ms(quantile(w, q)))
			}
		}
	}
	return per
}

// rateWindow is the span of completion times one throughput sample covers.
const rateWindow = 100 * time.Millisecond

// windowRates splits each saturation stream's successful completions into
// windows of rateWindow and returns each window's rate per second: the
// completions after its first one over the time they took. The first
// window, in which the connections ramp up, is skipped, and so is any
// completion after the stream stopped sending.
func windowRates(ss []*stream) []float64 {
	var out []float64
	for _, s := range ss {
		n := int(s.until / rateWindow)
		if n < 2 {
			continue
		}
		first := make([]time.Duration, n)
		last := make([]time.Duration, n)
		count := make([]int, n)
		for i, o := range s.out {
			if !o.ok() {
				continue
			}
			done := s.reqs[i].at + o.latency
			k := int(done / rateWindow)
			if k >= n {
				continue
			}
			if count[k] == 0 || done < first[k] {
				first[k] = done
			}
			last[k] = max(last[k], done)
			count[k]++
		}
		for k := 1; k < n; k++ {
			if count[k] > 1 && last[k] > first[k] {
				out = append(out, float64(count[k]-1)/(last[k]-first[k]).Seconds())
			}
		}
	}
	return out
}

// finite maps the infinite latency of a failed request to -1 for JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 0) {
		return -1
	}
	return v
}

// latencies returns a stream's sorted latencies for one endpoint (all when
// ep is empty); failed requests count as infinitely slow.
func latencies(s *stream, ep endpoint) []time.Duration {
	var out []time.Duration
	for i, o := range s.out {
		if ep != "" && s.reqs[i].ep != ep {
			continue
		}
		if o.ok() {
			out = append(out, o.latency)
		} else {
			out = append(out, time.Duration(math.MaxInt64))
		}
	}
	sortDur(out)
	return out
}

func sortDur(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ms(d time.Duration) float64 {
	if d == time.Duration(math.MaxInt64) {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Millisecond)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
