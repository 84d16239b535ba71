package search

import (
	"context"
	"runtime"
	"sync"

	"qunits/internal/ir"
)

// Amortized batch execution: the whole batch is answered by ONE pass
// over the shared posting lists (ir.MultiSearchSet) instead of N
// independent searchLocked calls. The per-item preamble — filter
// resolution, segmentation, type affinity, anchor identification — is
// the same code searchLocked runs, and every final score goes through
// resultFor, so per-item responses are bitwise identical to serial
// execution (the one-pass driver's own parity argument is in
// internal/ir/multi.go). Items the driver cannot take — exhaustive
// oracle engines, non-prunable scorers, plan failures — run through
// searchLocked on a GOMAXPROCS-bounded worker pool instead.

// batchSearchSet is the body of BatchSearch, parameterized by the shard
// subset each item scores (see PartitionBatchSearch).
func (e *Engine) batchSearchSet(ctx context.Context, reqs []Request, set ir.ShardSet) []BatchResult {
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	first := make(map[string]int, len(reqs))
	share := make([]int, len(reqs)) // share[i] = index whose result item i reuses
	var distinct []int
	for i, req := range reqs {
		key := req.CacheKey()
		if j, ok := first[key]; ok {
			share[i] = j
			continue
		}
		first[key] = i
		share[i] = i
		distinct = append(distinct, i)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()

	valid := make([]int, 0, len(distinct))
	for _, i := range distinct {
		if err := reqs[i].Validate(); err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		valid = append(valid, i)
	}

	// One distinct item gains nothing from amortization and would trade
	// the pruned serial path for an exhaustive pass; keep it serial.
	fallback := valid
	if len(valid) >= 2 && e.onePassBatch(ctx, reqs, valid, set, out) {
		fallback = nil
	}
	if len(fallback) > 0 {
		e.serialBatch(ctx, reqs, fallback, set, out)
	}

	// Positionally distinct duplicate items get defensive copies: the
	// response a caller can mutate must never be shared with another
	// item's.
	for i := range out {
		if share[i] != i {
			out[i] = copyBatchResult(out[share[i]])
		}
	}
	return out
}

// serialBatch runs the given items through searchLocked on a bounded
// worker pool — the fallback when the one-pass driver cannot take the
// batch. The pool is GOMAXPROCS-sized: a max-size batch must not spawn
// one goroutine per item while holding the engine read lock.
func (e *Engine) serialBatch(ctx context.Context, reqs []Request, items []int, set ir.ShardSet, out []BatchResult) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for _, i := range items {
			resp, err := e.searchLocked(ctx, reqs[i], set)
			out[i] = BatchResult{Response: resp, Err: err}
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				resp, err := e.searchLocked(ctx, reqs[i], set)
				out[i] = BatchResult{Response: resp, Err: err}
			}
		}()
	}
	for _, i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
}

// onePassBatch answers the given (validated, distinct) items through
// the multi-query driver. It reports whether the items were fully
// handled — false means the driver could not run and the caller must
// fall back to serial execution for all of them. Per-item failures
// (bad filters) are handled here either way.
func (e *Engine) onePassBatch(ctx context.Context, reqs []Request, items []int, set ir.ShardSet, out []BatchResult) bool {
	if err := ctx.Err(); err != nil {
		for _, i := range items {
			out[i] = BatchResult{Err: err}
		}
		return true
	}
	// Resolve each item's preamble; filter errors resolve that item
	// immediately (searchLocked would fail the same way before ever
	// touching the index).
	live := make([]int, 0, len(items))
	qctx := make([]queryCtx, 0, len(items))
	for _, i := range items {
		req := reqs[i]
		allowed, err := e.filterSet(req.Filter)
		if err != nil {
			out[i] = BatchResult{Err: err}
			continue
		}
		sg := e.seg.Segment(req.Query)
		anchors := map[string]bool{}
		for _, ent := range sg.Entities() {
			anchors[ent.Text] = true
		}
		live = append(live, i)
		qctx = append(qctx, queryCtx{
			allowed:    allowed,
			affinity:   e.typeAffinity(sg),
			anchors:    anchors,
			anchorDocs: e.anchorDocs(anchors),
			sg:         sg,
		})
	}
	if len(live) == 0 {
		return true
	}
	b := e.newBooster(qctx)
	queries := make([]ir.BatchQuery, len(live))
	for n, i := range live {
		// Retain the top offset+k by final score — enough to slice the
		// requested page bit-identically; k == 0 means the whole ranking.
		// Anchor-labeled instances can exceed the booster's ceiling by
		// the anchor boost, so they ride along as ceiling-exempt.
		retain := 0
		if reqs[i].K > 0 {
			retain = reqs[i].Offset + reqs[i].K
		}
		queries[n] = ir.BatchQuery{Terms: ir.Tokenize(reqs[i].Query), K: retain, Ceil: b.ceil[n], Exempt: qctx[n].anchorDocs}
	}
	hits, ok := e.index.MultiSearchSet(e.retrievalScorer(), queries, b, set)
	if !ok {
		// Roll the filter-failed items back too? No: their errors are
		// final and identical to serial; only the live items return to
		// the caller's fallback list, which re-runs everything in
		// items — re-resolving a failed filter yields the same error.
		return false
	}
	for n, i := range live {
		req, qc, bh := reqs[i], qctx[n], hits[n]
		results := make([]Result, 0, len(bh.Hits))
		for _, h := range bh.Hits {
			results = append(results, e.resultFor(e.byDoc[h.Doc], h.IRScore, qc.affinity, qc.anchors))
		}
		resp := &Response{Total: bh.Total}
		if req.Offset < len(results) {
			results = results[req.Offset:]
		} else {
			results = nil
		}
		if req.K > 0 && len(results) > req.K {
			results = results[:req.K]
		}
		resp.Results = results
		if req.Explain {
			resp.Explain = explainPayload(qc.sg, qc.affinity)
		}
		out[i] = BatchResult{Response: resp}
	}
	return true
}

// copyBatchResult returns a defensively-copied batch result: the
// Response struct, its Results slice, and the Explain payload are all
// fresh, so a caller mutating one batch item can never corrupt a
// positionally distinct duplicate. Result entries still share the
// engine's *core.Instance pointers — exactly what two independent
// serial Search calls return.
func copyBatchResult(br BatchResult) BatchResult {
	if br.Response == nil {
		return br
	}
	resp := *br.Response
	if resp.Results != nil {
		resp.Results = append([]Result(nil), resp.Results...)
	}
	if resp.Explain != nil {
		ex := *resp.Explain
		if ex.Segments != nil {
			ex.Segments = append([]ExplainSegment(nil), ex.Segments...)
		}
		if ex.Affinities != nil {
			ex.Affinities = append([]DefinitionAffinity(nil), ex.Affinities...)
		}
		resp.Explain = &ex
	}
	return BatchResult{Response: &resp, Err: br.Err}
}
