package ir

import (
	"math/bits"
	"sort"
	"sync"
)

// Multi-query batch retrieval: one pass over the shared posting lists
// answers many queries at once.
//
// A batch's queries overlap heavily in terms (the zipfian head of any
// real query log), yet serial execution decodes each shared posting
// list once per query. MultiSearchSet instead merges the term sets of
// the whole batch, walks each posting list exactly once per shard, and
// feeds per-query MaxScore accumulators from the single pass: per
// posting, the query-independent part of the scoring expression is
// computed once and fanned out to every subscribed query with one
// multiply-add.
//
// # Parity with serial execution
//
// The driver reproduces the EXHAUSTIVE scoring path bit for bit, which
// the pruned serial path is itself parity-proven against (see topk.go),
// so batch results are bitwise identical to serial no matter which path
// serial execution took:
//
//  1. Per (query, document), contributions accumulate in the query's
//     sorted-term order: the scan processes the document-id space in
//     windows, iterating the globally-sorted union term table within
//     each window — and a document's addends all land in the one window
//     containing it, in union order, whose restriction to one query's
//     subscribed terms is that query's own sorted order.
//  2. Each addend is scale*shared(tf, dl), which equals the exhaustive
//     contrib(tf, dl) bitwise by the planTerm factoring contract
//     (scale == 1.0, or the scale multiply is contrib's own final
//     operation).
//  3. Every candidate is counted, and a candidate's exact final score
//     is skipped only when a pruning bound — the query's ceiling, the
//     same expression shape the serial pruned path uses, inflated by
//     pruneSlack — proves it strictly below the query's current top-K
//     threshold (an equal score could still enter on the name
//     tie-break, so ties are always scored). Retained hits rank under
//     the same (score desc, name asc) total order serial retrieval
//     uses; names are unique, so truncation is unambiguous.
//
// Queries with no ceiling (Ceil <= 0) skip nothing and need no
// monotonicity assumptions: every match is scored exactly, valid for
// any boost signs, filters, and K (including K <= 0 = "all hits").

// multiGroupSize is the number of queries one scan accumulates
// simultaneously: each window document tracks its matched queries in
// one uint64 mask. Larger batches run as successive groups (each group
// re-walks the postings, so the amortization factor caps at 64 — far
// above any serving batch size).
const multiGroupSize = 64

// multiWindow is the width of the document-id window the scan
// accumulates into: Q×multiWindow float64 accumulators (1 MiB at the
// full group size) — resident regardless of corpus size, unlike a
// per-document dense table.
const multiWindow = 2048

// BatchQuery is one query of a multi-query pass. Terms are the raw
// tokenized query terms — duplicates are meaningful (TFIDF query
// weights depend on the in-query term frequency).
type BatchQuery struct {
	Terms []string
	// K bounds the retained hits: the top K by final score (ties by
	// name asc). K <= 0 retains every hit.
	K int
	// Ceil, when positive, lets the pass skip exact final-score
	// computation for documents provably below the query's current
	// K-th threshold: it must dominate Booster.Final/irScore for every
	// counted document except those listed in Exempt (up to the usual
	// few-ulps float slack, which pruneSlack absorbs). Ceil <= 0
	// disables the skip — every match is scored exactly.
	Ceil float64
	// Exempt lists global doc ids whose final score may exceed
	// irScore*Ceil (the engine's anchor-boosted instances); they are
	// always scored exactly.
	Exempt []int
}

// BatchHits is one query's result from a multi-query pass: the retained
// hits sorted best-first under (score desc, name asc), and the total
// number of counted candidates (the exact Total a serial search
// reports).
type BatchHits struct {
	Hits  []FinalHit
	Total int
}

// MultiSearchSet answers every query of the batch in one pass over the
// posting lists of the shards the set selects. The booster sees the
// batch's own query numbering: query q of queries is query q in
// Counts and Final. ok is false when the scorer cannot build a pruning
// plan for some (query, shard) pair — the caller falls back to serial
// execution, which is always valid. Hit docs carry global ids.
func (s *ShardedIndex) MultiSearchSet(scorer Scorer, queries []BatchQuery, booster Booster, set ShardSet) ([]BatchHits, bool) {
	ps, prunable := scorer.(prunedScorer)
	if !prunable {
		return nil, false
	}
	var selected []int
	for i := range s.shards {
		if set.Contains(i) {
			selected = append(selected, i)
		}
	}
	// Larger batches run as successive groups of multiGroupSize queries,
	// each numbered from its first query's index qbase.
	out := make([]BatchHits, 0, len(queries))
	for qbase := 0; qbase < len(queries); qbase += multiGroupSize {
		group, ok := s.multiSearchGroup(ps, queries[qbase:min(qbase+multiGroupSize, len(queries))], qbase, booster, selected)
		if !ok {
			return nil, false
		}
		out = append(out, group...)
	}
	return out, true
}

// multiSearchGroup runs one group of at most multiGroupSize queries —
// queries qbase.. of the batch — over the selected shards and merges
// the per-shard rankings.
func (s *ShardedIndex) multiSearchGroup(ps prunedScorer, queries []BatchQuery, qbase int, booster Booster, selected []int) ([]BatchHits, bool) {
	perShard := make([][]BatchHits, len(s.shards))
	planFailed := make([]bool, len(s.shards))
	run := func(i int) {
		res, ok := s.multiShardPass(ps, queries, qbase, booster, i)
		if !ok {
			planFailed[i] = true
			return
		}
		perShard[i] = res
	}
	if len(selected) == 1 {
		run(selected[0])
	} else {
		var wg sync.WaitGroup
		for _, i := range selected {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				run(i)
			}(i)
		}
		wg.Wait()
	}
	for _, failed := range planFailed {
		if failed {
			return nil, false
		}
	}

	// Merge the per-shard rankings per query, exactly as the sharded
	// single-query paths do, and sum the per-shard totals.
	out := make([]BatchHits, len(queries))
	for q := range queries {
		lists := make([][]FinalHit, 0, len(selected))
		total := 0
		for _, i := range selected {
			if perShard[i] == nil {
				continue
			}
			lists = append(lists, perShard[i][q].Hits)
			total += perShard[i][q].Total
		}
		k := queries[q].K
		if k <= 0 {
			for _, l := range lists {
				k += len(l)
			}
		}
		out[q] = BatchHits{Hits: mergeFinalHits(lists, k), Total: total}
	}
	return out, true
}

// multiSub is one query's subscription to a union term: the plan term
// supplies the scale, and the query index (with its precomputed match
// bit) routes the contribution.
type multiSub struct {
	q     int
	bit   uint64
	scale float64
}

// multiTerm is one entry of the merged term table: the posting cursor
// shared by every subscriber, the shared-part evaluator (identical
// across subscribers — it closes over only query-independent state),
// and the subscriber list.
type multiTerm struct {
	term   string
	cur    cursor
	shared func(tf, dl float64) float64
	subs   []multiSub
}

// multiShardPass runs the one-pass scan over a single shard for one
// group (queries qbase..). Results carry local doc ids remapped to
// global before return.
func (s *ShardedIndex) multiShardPass(ps prunedScorer, queries []BatchQuery, qbase int, booster Booster, si int) ([]BatchHits, bool) {
	shard := s.shards[si]
	plans := make([]scorePlan, len(queries))
	for q := range queries {
		// No scratch here: every query's plan must stay alive for the
		// whole pass, so the buffers cannot be shared.
		plan, ok := ps.plan(shard, queries[q].Terms, nil)
		if !ok {
			return nil, false
		}
		plans[q] = plan
	}

	// Merge the per-query plan terms into one union table, re-sorted
	// globally so the scan visits terms — and therefore accumulates
	// per-query contributions — in sorted term order.
	byTerm := make(map[string]int)
	var union []*multiTerm
	for q := range plans {
		for i := range plans[q].terms {
			pt := &plans[q].terms[i]
			j, ok := byTerm[pt.term]
			if !ok {
				j = len(union)
				byTerm[pt.term] = j
				union = append(union, &multiTerm{term: pt.term, shared: pt.shared})
			}
			union[j].subs = append(union[j].subs, multiSub{q: q, bit: 1 << uint(q), scale: pt.scale})
		}
	}
	sort.Slice(union, func(a, b int) bool { return union[a].term < union[b].term })
	live := union[:0]
	for _, ut := range union {
		ut.cur = newCursor(shard, shard.postings[ut.term])
		if !ut.cur.done {
			live = append(live, ut)
		}
	}
	union = live

	// Per-query accumulators: a bounded heap when the query asked for
	// the top K, an unbounded list (sorted at the end) when it asked
	// for everything. finalTopK drops all offers at k <= 0, so the
	// unbounded case needs its own branch.
	topks := make([]*finalTopK, len(queries))
	all := make([][]FinalHit, len(queries))
	for q := range queries {
		if queries[q].K > 0 {
			topks[q] = &finalTopK{k: queries[q].K}
		}
	}
	totals := make([]int, len(queries))

	// Exempt doc sets, translated to sorted local ids per query.
	exempt := make([][]int, len(queries))
	for q := range queries {
		for _, g := range queries[q].Exempt {
			if g >= 0 && g < len(s.shardOf) && int(s.shardOf[g]) == si {
				exempt[q] = append(exempt[q], int(s.localOf[g]))
			}
		}
		sort.Ints(exempt[q])
	}

	// Per-query skip state, hoisted out of the per-pair loop: the
	// ceiling from the query, and the current threshold (valid while
	// full[q]) refreshed after every offer.
	ceils := make([]float64, len(queries))
	thetas := make([]float64, len(queries))
	fulls := make([]bool, len(queries))
	for q := range queries {
		ceils[q] = queries[q].Ceil
	}

	// Windowed document-at-a-time scan: the document-id space advances
	// in fixed windows; within a window every union cursor drains its
	// postings below the window's end into dense per-(query, doc)
	// accumulators, with a per-doc query bitmask recording who matched.
	// Terms iterate in sorted union order, and a document's addends all
	// land in its own window, so per-(query, doc) accumulation order is
	// exactly the sorted-term order parity requires. The accumulators
	// are doc-major with a fixed stride of one group (raw[off*64+q]) so
	// one document's slots — written together while a posting fans out
	// to subscribers, read together on drain — share cache lines, and
	// so q&63 indexing into a full-stride row needs no bounds checks.
	raw := make([]float64, multiWindow*multiGroupSize)
	mask := make([]uint64, multiWindow)
	n := shard.LocalLen()
	for base := 0; base < n; {
		// Skip straight to the lowest pending doc's window.
		next := n
		for _, ut := range union {
			if !ut.cur.done && ut.cur.doc < next {
				next = ut.cur.doc
			}
		}
		if next >= n {
			break
		}
		base = next - next%multiWindow
		hi := base + multiWindow
		for _, ut := range union {
			cur := &ut.cur
			subs := ut.subs
			if len(subs) == 1 {
				// Single-subscriber fast path: most tail terms belong
				// to one query; hoist the fan-out loop.
				q, bit, scale := subs[0].q&63, subs[0].bit, subs[0].scale
				for !cur.done && cur.doc < hi {
					off := cur.doc - base
					sh := ut.shared(cur.tf, shard.docLen[cur.doc])
					raw[off*multiGroupSize+q] += scale * sh
					mask[off] |= bit
					cur.next()
				}
			} else {
				for !cur.done && cur.doc < hi {
					off := cur.doc - base
					sh := ut.shared(cur.tf, shard.docLen[cur.doc])
					row := raw[off*multiGroupSize : off*multiGroupSize+multiGroupSize : off*multiGroupSize+multiGroupSize]
					var hit uint64
					for _, sub := range subs {
						row[sub.q&63] += sub.scale * sh
						hit |= sub.bit
					}
					mask[off] |= hit
					cur.next()
				}
			}
		}
		for off := 0; off < multiWindow; off++ {
			m := mask[off]
			if m == 0 {
				continue
			}
			mask[off] = 0
			d := base + off
			g := s.globalOf[si][d]
			dl := shard.docLen[d]
			row := raw[off*multiGroupSize : off*multiGroupSize+multiGroupSize : off*multiGroupSize+multiGroupSize]
			counts := booster.Counts(g, qbase)
			for m != 0 {
				q := bits.TrailingZeros64(m)
				m &= m - 1
				r := row[q&63]
				row[q&63] = 0
				if counts&(1<<uint(q)) == 0 {
					continue
				}
				totals[q]++
				irScore := r
				if !plans[q].rawFinal {
					irScore = plans[q].finalize(r, dl)
				}
				topk := topks[q]
				if topk != nil {
					// MaxScore-style skip: once the heap is full, a
					// document whose inflated ceiling-bound falls
					// strictly below the K-th final score cannot enter
					// the top K — unless it is ceiling-exempt.
					if fulls[q] && ceils[q] > 0 &&
						inflate(irScore*ceils[q]) < thetas[q] && !containsSorted(exempt[q], d) {
						continue
					}
					topk.offer(FinalHit{Doc: d, Name: shard.names[d], Score: booster.Final(qbase+q, g, irScore), IRScore: irScore})
					thetas[q], fulls[q] = topk.threshold()
				} else {
					all[q] = append(all[q], FinalHit{Doc: d, Name: shard.names[d], Score: booster.Final(qbase+q, g, irScore), IRScore: irScore})
				}
			}
		}
		base = hi
	}

	out := make([]BatchHits, len(queries))
	for q := range queries {
		var hits []FinalHit
		if topks[q] != nil {
			hits = topks[q].hits()
		} else {
			hits = all[q]
			sort.Slice(hits, func(i, j int) bool { return finalLess(hits[j], hits[i]) })
		}
		for j := range hits {
			hits[j].Doc = s.globalOf[si][hits[j].Doc]
		}
		out[q] = BatchHits{Hits: hits, Total: totals[q]}
	}
	return out, true
}

// containsSorted reports whether a sorted int slice contains v; the
// exempt sets are tiny (a query's anchor-labeled instances), so a
// linear scan beats binary-search setup.
func containsSorted(a []int, v int) bool {
	for _, x := range a {
		if x == v {
			return true
		}
		if x > v {
			return false
		}
	}
	return false
}
