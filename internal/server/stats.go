package server

import (
	"sync/atomic"
)

// counters is the server's always-on operational accounting, maintained with
// atomics so the hot serve path never takes a lock for bookkeeping. The
// /v1/statsz endpoint renders it as one machine-readable document following
// the same conventions as the repo's StatsJSON / BenchDoc contracts (stable
// snake_case keys, arrays never null).
type counters struct {
	associateRequests  atomic.Int64
	matchRequests      atomic.Int64
	matchImageRequests atomic.Int64
	ingestRequests     atomic.Int64
	reloadRequests     atomic.Int64
	influenceRequests  atomic.Int64
	reportRequests     atomic.Int64
	metricsRequests    atomic.Int64

	errors atomic.Int64 // requests answered with a non-2xx status

	matched atomic.Int64 // single-hash lookups that found a cluster
	missed  atomic.Int64 // single-hash lookups outside the threshold

	associatedPosts atomic.Int64 // posts received by /v1/associate
	associations    atomic.Int64 // associations returned by /v1/associate

	batches         atomic.Int64 // Associate fan-outs the micro-batcher ran
	batchedRequests atomic.Int64 // /v1/match lookups those fan-outs carried
	largestBatch    atomic.Int64 // high-water mark of coalesced lookups

	reloads atomic.Int64 // successful hot swaps (admin endpoint or SIGHUP)

	shed     atomic.Int64 // requests refused by admission control (503)
	timeouts atomic.Int64 // requests answered 504 after their deadline
	panics   atomic.Int64 // handler/dispatcher panics contained by recovery

	imagesTooLarge atomic.Int64 // /v1/match/image bodies over maxImagePixels (413)
}

// observeBatch records one micro-batcher fan-out of n coalesced lookups.
func (c *counters) observeBatch(n int) {
	c.batches.Add(1)
	c.batchedRequests.Add(int64(n))
	for {
		cur := c.largestBatch.Load()
		if int64(n) <= cur || c.largestBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// The /v1/statsz document types (StatsDoc and its sub-structs) live in
// wire.go with the rest of the API's wire shapes.
