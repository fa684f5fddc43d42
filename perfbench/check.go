package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image"
	_ "image/png" // decodes the /v1/match/image bodies for the oracle
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/dataset"
)

// Response shapes, as internal/server writes them.
type matchResp struct {
	Matched    bool   `json:"matched"`
	ClusterID  int    `json:"cluster_id"`
	Distance   int    `json:"distance"`
	Entry      string `json:"entry"`
	Generation uint64 `json:"generation"`
}

type assocJSON struct {
	PostIndex int    `json:"post_index"`
	ClusterID int    `json:"cluster_id"`
	Distance  int    `json:"distance"`
	Entry     string `json:"entry"`
}

type assocResp struct {
	Posts        int         `json:"posts"`
	Matched      int         `json:"matched"`
	Associations []assocJSON `json:"associations"`
}

type influenceResp struct {
	Events        []int       `json:"events"`
	Raw           [][]float64 `json:"raw"`
	Normalized    [][]float64 `json:"normalized"`
	TotalExternal []float64   `json:"total_external"`
	Total         []float64   `json:"total"`
}

// oracle checks responses against an in-process engine loaded from the
// same snapshot. A response identical to one already checked for the same
// input is not decoded again.
type oracle struct {
	workload string
	ds       *dataset.Dataset
	eng      *memes.Engine
	imgs     *imageCache
	bulk     [][]dataset.Post
	seen     map[checkKey]seenResp

	hits, lookups, images int
}

type checkKey struct {
	ep  endpoint
	ref int
}

type seenResp struct {
	body    []byte
	matched bool
}

func (b *bench) newOracle(s *system) (*oracle, error) {
	site, err := s.ds.Site(true)
	if err != nil {
		return nil, err
	}
	eng, err := memes.LoadEngineFile(s.snap, site, memes.WithDataset(s.ds))
	if err != nil {
		return nil, fmt.Errorf("loading oracle engine: %w", err)
	}
	o := &oracle{workload: b.workload, ds: s.ds, eng: eng, imgs: newImageCache(s.ds), seen: map[checkKey]seenResp{}}
	if b.workload == "bulk" {
		o.bulk = batches(withImageless(s.ds, b.seed), bulkBatch)
	}
	return o, nil
}

func (o *oracle) close() { o.eng.Close() }

// check compares every successful response of the streams with the
// oracle's answer and then drops the response bodies. Any mismatch fails
// the run.
func (o *oracle) check(streams []*stream) error {
	for _, st := range streams {
		for i := range st.out {
			out := &st.out[i]
			if !out.ok() {
				continue
			}
			r := st.reqs[i]
			matched, err := o.checkOne(r, out.body)
			if err != nil {
				return err
			}
			if r.ep != epAssociate {
				o.lookups++
				if matched {
					o.hits++
				}
				if r.ep == epImage {
					o.images++
				}
			}
			out.body = nil
		}
	}
	return nil
}

// checkOne checks one response body and reports whether a lookup matched.
func (o *oracle) checkOne(r request, body []byte) (bool, error) {
	k := checkKey{r.ep, r.ref}
	if prev, ok := o.seen[k]; ok && bytes.Equal(prev.body, body) {
		return prev.matched, nil
	}
	ctx := context.Background()
	clusters := o.eng.Clusters()
	entry := func(id int) string { return clusters[id].EntryName() }
	want := func(m memes.Match, ok bool) matchResp {
		if !ok {
			return matchResp{ClusterID: -1, Distance: -1}
		}
		return matchResp{Matched: true, ClusterID: m.ClusterID, Distance: m.Distance, Entry: entry(m.ClusterID)}
	}
	matched := false
	switch r.ep {
	case epMatch, epImage:
		var got matchResp
		if err := json.Unmarshal(body, &got); err != nil {
			return false, fmt.Errorf("%w: %s response: %v", errIncorrect, r.ep, err)
		}
		// The server never reloads, so every answer comes from the engine
		// it booted with.
		if got.Generation != 1 {
			return false, fmt.Errorf("%w: %s of post %d answered by generation %d", errIncorrect, r.ep, r.ref, got.Generation)
		}
		post := o.ds.Posts[r.ref]
		var exp matchResp
		if r.ep == epMatch {
			m, ok, err := o.eng.Match(ctx, memes.Hash(post.Hash))
			if err != nil {
				return false, err
			}
			exp = want(m, ok)
		} else {
			png, err := o.imgs.png(post)
			if err != nil {
				return false, err
			}
			img, _, err := image.Decode(bytes.NewReader(png))
			if err != nil {
				return false, err
			}
			m, ok, err := o.eng.MatchImage(ctx, img)
			if err != nil {
				return false, err
			}
			exp = want(m, ok)
		}
		got.Generation = 0
		if got != exp {
			return false, fmt.Errorf("%w: %s of post %d: got %+v, want %+v", errIncorrect, r.ep, r.ref, got, exp)
		}
		matched = got.Matched
	case epAssociate:
		var got assocResp
		if err := json.Unmarshal(body, &got); err != nil {
			return false, fmt.Errorf("%w: associate response: %v", errIncorrect, err)
		}
		as, err := o.eng.Associate(ctx, o.bulk[r.ref])
		if err != nil {
			return false, err
		}
		exp := assocResp{Posts: len(o.bulk[r.ref]), Matched: len(as), Associations: []assocJSON{}}
		for _, a := range as {
			exp.Associations = append(exp.Associations, assocJSON{a.PostIndex, a.ClusterID, a.Distance, entry(a.ClusterID)})
		}
		if !reflect.DeepEqual(got, exp) {
			return false, fmt.Errorf("%w: associate batch %d differs from the oracle", errIncorrect, r.ref)
		}
	}
	o.seen[k] = seenResp{body: body, matched: matched}
	return matched, nil
}

// properties records the workload properties the checked responses show.
func (o *oracle) properties(p map[string]float64) {
	p["lookup_hit_ratio"] = float64(o.hits) / math.Max(1, float64(o.lookups))
	p["image_share_of_lookups"] = float64(o.images) / math.Max(1, float64(o.lookups))
	if o.workload == "bulk" {
		n, total := 0, 0
		for _, batch := range o.bulk {
			for _, post := range batch {
				total++
				if !post.HasImage {
					n++
				}
			}
		}
		p["imageless_share"] = float64(n) / float64(max(total, 1))
	}
}

// verifyInfluence compares the served influence matrices with the
// in-process fit over the same engine: equal, not close.
func (b *bench) verifyInfluence(s *system, bodies map[string][]byte) error {
	site, err := s.ds.Site(true)
	if err != nil {
		return err
	}
	eng, err := memes.LoadEngineFile(s.snap, site, memes.WithDataset(s.ds))
	if err != nil {
		return err
	}
	defer eng.Close()
	res, err := eng.TryResult()
	if err != nil {
		return err
	}
	for _, g := range influenceGroups {
		var group memes.MemeGroup
		switch g {
		case "all":
			group = memes.AllMemes
		case "racist":
			group = memes.RacistMemes
		case "politics":
			group = memes.PoliticalMemes
		}
		inf, err := memes.EstimateInfluence(res, group)
		if err != nil {
			return err
		}
		var got influenceResp
		if err := json.Unmarshal(bodies[g], &got); err != nil {
			return fmt.Errorf("%w: influence %s: %v", errIncorrect, g, err)
		}
		exp := influenceResp{inf.Events, inf.Raw, inf.Normalized, inf.TotalExternal, inf.Total}
		if !reflect.DeepEqual(got, exp) {
			return fmt.Errorf("%w: /v1/influence %s differs from the in-process fit", errIncorrect, g)
		}
	}
	return nil
}

// endEpoch cross-checks the generator's counts for the current server
// lifetime against the server's own /v1/metrics, then resets the tally.
func (b *bench) endEpoch(s *system) error {
	st, body, err := httpGet(s.addr, "/v1/metrics", 10*time.Second)
	if err != nil || st != http.StatusOK {
		return fmt.Errorf("scraping /v1/metrics: status %d: %v", st, err)
	}
	prom := parseProm(body)
	failed := 0
	for _, ep := range []endpoint{epMatch, epImage, epAssociate} {
		sent := 0
		if t := b.tally[ep]; t != nil {
			sent = t.Sent
			failed += t.Sent - t.Succeeded
		}
		if got := prom[`memes_requests_total{endpoint="`+string(ep)+`"}`]; int(got) != sent {
			return fmt.Errorf("%w: memes_requests_total{%s} = %v, generator sent %d", errIncorrect, ep, got, sent)
		}
	}
	if got := prom["memes_errors_total"]; int(got) != failed {
		return fmt.Errorf("%w: memes_errors_total = %v, generator saw %d failures", errIncorrect, got, failed)
	}
	b.tally = map[endpoint]*tally{}
	return nil
}

// parseProm reads a Prometheus text exposition into series -> value.
func parseProm(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
