package ir

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// MaxScore/WAND-style pruned top-k retrieval.
//
// The driver walks posting cursors document-at-a-time. Query terms are
// split by their list-level score upper bound into a "non-essential"
// prefix (cheapest lists first) whose combined bound cannot reach the
// current k-th threshold, and the "essential" rest: only essential
// lists generate candidate documents, so documents appearing solely in
// non-essential lists are skipped without ever being decoded or scored.
// Each surviving candidate is first checked against a refined bound
// built from the per-block max-score metadata of the blocks it falls
// in, then — if still viable — fully scored.
//
// # Parity with the exhaustive scorer
//
// Pruned retrieval must return bit-identical results to the exhaustive
// oracle (same documents, same float64 scores, same tie order). Three
// rules make that hold:
//
//  1. A scored document accumulates its per-term contributions in
//     sorted-term order — exactly the order the exhaustive scorer adds
//     them — with each contribution computed by the same expression, so
//     the float sums agree bit for bit.
//  2. Bounds only ever decide whether to score a document at all, never
//     how; a document is skipped only when its bound is *strictly*
//     below the threshold (an equal score could still enter the top k
//     on the name tie-break).
//  3. Every bound is inflated by pruneSlack before the comparison.
//     Real-arithmetic bounds dominate real contributions by the
//     monotonicity of each scoring expression; the inflation absorbs
//     the few ulps by which floating-point evaluation of bound and
//     contribution expressions can disagree (a handful of rounding
//     steps each, relative error ~2^-50, dwarfed by the 2^-30-scale
//     slack), so the inflated float bound always dominates the float
//     score.
//
// Block metadata may be stale after removals (a tombstoned document's
// TF may still back a block's MaxTF): stale maxima overstate and stale
// minima understate, so bounds stay valid — pruning merely gets a
// little less effective until the list is rebuilt by a snapshot cycle.

// pruneSlack is the multiplicative inflation applied to every pruning
// bound; see the parity notes above.
const pruneSlack = 1 + 1e-9

// inflate pads a (non-negative) bound by pruneSlack.
func inflate(x float64) float64 { return x * pruneSlack }

// minPositiveTFIDFTF is the smallest TF for which the lnc document
// weight (1+ln tf) stays non-negative (just above 1/e). Lists holding a
// smaller TF could contribute negatively, which would invalidate the
// subset-sum bound monotonicity, so such indexes fall back to the
// exhaustive path.
const minPositiveTFIDFTF = 0.36788

// planTerm is one query term's scoring plan: its list-level upper
// bound, its exact contribution function (bitwise identical to the
// exhaustive scorer's expression), and its bound function over block
// metadata.
//
// shared and scale are the contribution factored into a
// query-independent part and a per-(query,term) scalar, so the
// multi-query driver can compute shared(tf, dl) once per posting and
// reuse it across every batch query subscribed to the term. The
// factoring must satisfy scale*shared(tf, dl) == contrib(tf, dl)
// bitwise: either scale == 1.0 (IEEE 1.0*x == x exactly) or
// contrib's own final operation is literally the scale multiply.
type planTerm struct {
	term    string
	ub      float64
	contrib func(tf, dl float64) float64
	bound   func(maxTF, minLen float64) float64
	shared  func(tf, dl float64) float64
	scale   float64
}

// scorePlan is a query's full pruned-scoring plan. terms are in sorted
// term order — the accumulation order parity requires.
type scorePlan struct {
	terms []planTerm
	// finalize maps a document's raw contribution sum and length to its
	// final score (identity for BM25, cosine normalization for TFIDF).
	finalize func(raw, dl float64) float64
	// boundFin is finalize's upper-bound counterpart: applied to an
	// inflated raw bound with the best-case (smallest) document length.
	boundFin func(raw, dl float64) float64
	// rawFinal marks finalize as the identity (rawFinalize), letting
	// hot paths use the raw sum directly — bitwise the same value —
	// without an indirect call per candidate.
	rawFinal bool
	// minDl is a lower bound on any live document's weighted length.
	minDl float64
}

// prunedScorer is implemented by scorers that can build a pruning plan.
// plan returns ok=false when the index or parameters violate the
// assumptions pruning needs (non-negative, monotone contributions);
// callers then fall back to the exhaustive path, which is always valid.
// A non-nil scratch makes the returned plan's buffers alias it (see
// searchScratch for the lifetime rules); nil allocates fresh, which is
// required whenever several plans must be alive at once.
type prunedScorer interface {
	Scorer
	plan(ix *Index, terms []string, sc *searchScratch) (scorePlan, bool)
}

// queryTF folds the raw query terms into a term-frequency map plus the
// sorted distinct-term list plan construction iterates — the one fold
// both plan builders previously duplicated inline. With a scratch, the
// map and term buffer are reused across queries instead of allocated
// per plan.
func queryTF(terms []string, sc *searchScratch) (map[string]float64, []string) {
	var qtf map[string]float64
	var sorted []string
	if sc != nil {
		clear(sc.qtf)
		qtf, sorted = sc.qtf, sc.terms[:0]
	} else {
		qtf = make(map[string]float64, len(terms))
	}
	for _, t := range terms {
		qtf[t]++
	}
	for t := range qtf {
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)
	if sc != nil {
		sc.terms = sorted
	}
	return qtf, sorted
}

// planBuf hands out the scratch's plan-term buffer (or nothing, for the
// allocate-fresh path).
func planBuf(sc *searchScratch) []planTerm {
	if sc == nil {
		return nil
	}
	return sc.plans[:0]
}

// plan implements prunedScorer for BM25.
func (s BM25) plan(ix *Index, terms []string, sc *searchScratch) (scorePlan, bool) {
	k1, b := s.params()
	if !(k1 > 0) || b < 0 || b > 1 {
		// Exotic shape parameters break the monotonicity (in tf up, in
		// dl down) the bounds rely on.
		return scorePlan{}, false
	}
	avg := ix.AvgDocLen()
	if avg == 0 {
		return scorePlan{terms: nil, finalize: rawFinalize, boundFin: rawFinalize, rawFinal: true}, true
	}
	_, sorted := queryTF(terms, sc)
	plan := scorePlan{finalize: rawFinalize, boundFin: rawFinalize, rawFinal: true, minDl: ix.minLiveLen}
	plan.terms = planBuf(sc)
	for _, t := range sorted {
		pl := ix.postings[t]
		if pl == nil {
			continue
		}
		if !(pl.minTF > 0) {
			return scorePlan{}, false
		}
		idf := ix.IDF(t)
		contrib := func(tf, dl float64) float64 {
			norm := tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avg))
			return idf * norm
		}
		// The bound is the contribution expression evaluated at the
		// block's most favorable posting: maximum TF, minimum length.
		// BM25 contributions are query-independent, so the shared part
		// is the whole contribution and the scale is exactly 1.
		pt := planTerm{term: t, contrib: contrib, bound: contrib, shared: contrib, scale: 1}
		pt.ub = pt.bound(pl.maxTF, pl.minLen)
		plan.terms = append(plan.terms, pt)
	}
	if sc != nil {
		sc.plans = plan.terms
	}
	return plan, true
}

// plan implements prunedScorer for TFIDF.
func (TFIDF) plan(ix *Index, terms []string, sc *searchScratch) (scorePlan, bool) {
	qtf, sorted := queryTF(terms, sc)
	plan := scorePlan{
		finalize: cosineFinalize,
		boundFin: cosineFinalize,
		minDl:    ix.minLiveLen,
	}
	plan.terms = planBuf(sc)
	for _, t := range sorted {
		pl := ix.postings[t]
		if pl == nil {
			continue
		}
		if pl.minTF < minPositiveTFIDFTF {
			return scorePlan{}, false
		}
		qf := qtf[t]
		idf := ix.IDF(t)
		if idf == 0 {
			continue
		}
		qw := (1 + math.Log(qf)) * idf
		pt := planTerm{
			term: t,
			contrib: func(tf, dl float64) float64 {
				dw := (1 + math.Log(tf)) * idf
				return qw * dw
			},
			bound: func(maxTF, minLen float64) float64 {
				dw := (1 + math.Log(maxTF)) * idf
				return qw * dw
			},
			// The document weight is query-independent; qw*dw is
			// contrib's own final multiply, so scale*shared is the
			// identical float expression.
			shared: func(tf, dl float64) float64 {
				return (1 + math.Log(tf)) * idf
			},
			scale: qw,
		}
		pt.ub = pt.bound(pl.maxTF, pl.minLen)
		plan.terms = append(plan.terms, pt)
	}
	if sc != nil {
		sc.plans = plan.terms
	}
	return plan, true
}

// rawFinalize is the identity finalizer (BM25 scores need no per-doc
// transform).
func rawFinalize(raw, dl float64) float64 { return raw }

// cosineFinalize is TFIDF's length normalization — the same expression,
// same guard, the exhaustive scorer applies. As a bound transform it is
// valid because sqrt is monotone and dl is a lower bound.
func cosineFinalize(raw, dl float64) float64 {
	if dl > 0 {
		return raw / math.Sqrt(dl)
	}
	return raw
}

// scoreDocsPlanned computes the exact scores of specific documents
// under a plan: terms outer in sorted order, target docs inner
// ascending — the same accumulation order as the exhaustive
// term-at-a-time scorer, so the results are bitwise identical to the
// corresponding entries of Scorer.Score. locals must be sorted
// ascending and deduplicated. Docs containing no plan term are absent
// from the result, exactly as they are absent from Score's map. With a
// scratch, the returned map aliases it and is valid only until release.
func scoreDocsPlanned(ix *Index, plan scorePlan, locals []int, sc *searchScratch) map[int]float64 {
	var raw map[int]float64
	if sc != nil {
		clear(sc.raw)
		raw = sc.raw
	} else {
		raw = make(map[int]float64, len(locals))
	}
	for i := range plan.terms {
		pt := &plan.terms[i]
		c := newCursor(ix, ix.postings[pt.term])
		for _, d := range locals {
			c.seek(d)
			if c.done {
				break
			}
			if c.doc == d {
				raw[d] += pt.contrib(c.tf, ix.docLen[d])
			}
		}
	}
	for d, r := range raw {
		raw[d] = plan.finalize(r, ix.docLen[d])
	}
	return raw
}

// Booster folds caller context into boosted retrieval, keyed by global
// document id, so the top k comes out ranked by FINAL score — essential
// when multipliers differ enough that the IR top k and the final top k
// diverge (the qunit engine's type-affinity and utility factors). Both
// scoring kernels call it the same way: the single-query kernel is a
// batch of one (base 0, query 0). Implementations must be safe for
// concurrent use: shards run in parallel.
type Booster interface {
	// Counts reports which of the queries base..base+63 count global
	// document g (bit j: query base+j) — the caller's per-query filter,
	// settled for up to 64 queries at once. base is always a multiple
	// of 64. A document no query counts is never scored.
	Counts(g, base int) uint64
	// Final maps query q's exact IR score for global document g to its
	// final (ranking) score. It must be monotone non-decreasing in
	// irScore for fixed (q, g), and satisfy Final(q, g, s) <= s*ceil
	// (the query's ceiling) for every document the kernel does not skip
	// or exempt, up to the usual few-ulps float slack, which pruning's
	// inflation absorbs.
	Final(q, g int, irScore float64) float64
}

// FinalHit is one boosted-retrieval result: the final (boosted) score
// used for ranking plus the raw IR component.
type FinalHit struct {
	Doc     int
	Name    string
	Score   float64 // final score (ranking key, ties broken by Name asc)
	IRScore float64
}

// scoreTopKPruned runs MaxScore retrieval for the plan and returns the
// top k hits sorted best-first — identical to sorting the exhaustive
// scorer's full output and truncating to k. The result is a fresh
// copy, so the caller may release the scratch immediately after.
func scoreTopKPruned(ix *Index, plan scorePlan, k int, sc *searchScratch) []Hit {
	fhits := scoreTopKBoosted(ix, plan, k, nil, 1, nil, nil, sc)
	hits := make([]Hit, len(fhits))
	for i, fh := range fhits {
		hits[i] = Hit{Doc: fh.Doc, Name: fh.Name, Score: fh.Score}
	}
	return hits
}

// termCursor pairs a plan term with its posting cursor — the MaxScore
// driver's per-list state.
type termCursor struct {
	pt  *planTerm
	cur cursor
}

// scoreTopKBoosted is the MaxScore driver. With a nil booster it ranks
// by raw IR score (ceil is ignored as 1); with a booster, candidates
// are resolved to global ids through global (local id -> global id),
// dropped when listed in skip (sorted global ids) or not counted by
// booster.Counts, scored exactly, mapped through booster.Final as query
// 0, and every pruning bound is stretched by ceil so it dominates any
// remaining document's final score. Hit docs are local ids.
func scoreTopKBoosted(ix *Index, plan scorePlan, k int, booster Booster, ceil float64, skip, global []int, sc *searchScratch) []FinalHit {
	// stretch maps an IR-score bound to a final-score bound: identity
	// for plain retrieval, ×ceil (with inflation absorbing the changed
	// association) for boosted retrieval.
	stretch := func(v float64) float64 {
		if booster == nil {
			return v
		}
		return inflate(v * ceil)
	}
	var cursors []termCursor
	if sc != nil {
		cursors = sc.cursors[:0]
	} else {
		cursors = make([]termCursor, 0, len(plan.terms))
	}
	for i := range plan.terms {
		pt := &plan.terms[i]
		c := newCursor(ix, ix.postings[pt.term])
		if !c.done {
			cursors = append(cursors, termCursor{pt: pt, cur: c})
		}
	}
	if sc != nil {
		sc.cursors = cursors
	}
	if len(cursors) == 0 {
		return []FinalHit{}
	}

	// order holds cursor indices sorted by list upper bound ascending
	// (term asc on ties, for determinism); cum[i] is the float prefix
	// sum of bounds over order[0..i].
	var order []int
	var cum, suffix []float64
	if sc != nil {
		order = grownInts(sc.order, len(cursors))
		cum = grownF64s(sc.cum, len(cursors))
		suffix = grownF64s(sc.suffix, len(cursors)+1)
		sc.order, sc.cum, sc.suffix = order, cum, suffix
	} else {
		order = make([]int, len(cursors))
		cum = make([]float64, len(cursors))
		suffix = make([]float64, len(cursors)+1)
	}
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ca, cb := cursors[a], cursors[b]
		if ca.pt.ub != cb.pt.ub {
			if ca.pt.ub < cb.pt.ub {
				return -1
			}
			return 1
		}
		return strings.Compare(ca.pt.term, cb.pt.term)
	})
	for i, oi := range order {
		cum[i] = cursors[oi].pt.ub
		if i > 0 {
			cum[i] += cum[i-1]
		}
	}
	// suffix[i] bounds the total contribution of plan-order terms i..n.
	suffix[len(cursors)] = 0
	for i := len(cursors) - 1; i >= 0; i-- {
		suffix[i] = cursors[i].pt.ub + suffix[i+1]
	}

	topk := finalTopK{k: k}
	if sc != nil {
		topk.h = sc.heap[:0]
	}
	theta := math.Inf(-1)
	full := false
	ness := 0 // cursors order[:ness] are non-essential under theta
	repartition := func() {
		for ness < len(order) && stretch(plan.boundFin(inflate(cum[ness]), plan.minDl)) < theta {
			ness++
		}
	}

	frontier := 0 // candidates are strictly increasing; all docs < frontier are settled
	for {
		// Next candidate: the minimum current doc over essential lists
		// (each first caught up to the frontier — a list promoted from
		// non-essential may lag behind; its skipped docs were provably
		// below the then-smaller threshold).
		cand := -1
		for _, oi := range order[ness:] {
			c := &cursors[oi]
			c.cur.seek(frontier)
			if !c.cur.done && (cand == -1 || c.cur.doc < cand) {
				cand = c.cur.doc
			}
		}
		if cand == -1 {
			break
		}
		frontier = cand + 1
		g := -1
		if booster != nil {
			g = global[cand]
			if containsSorted(skip, g) || booster.Counts(g, 0)&1 == 0 {
				continue
			}
		}
		dl := ix.docLen[cand]

		if full {
			// Refined bound from per-block metadata: essential lists
			// positioned exactly on the candidate contribute at most
			// their current block's bound; essential lists already past
			// it contribute nothing; non-essential lists keep their
			// cheap list-level bound.
			refined := 0.0
			if ness > 0 {
				refined = cum[ness-1]
			}
			for _, oi := range order[ness:] {
				c := &cursors[oi]
				if !c.cur.done && c.cur.doc == cand {
					refined += c.pt.bound(c.cur.blockMaxTF(), c.cur.blockMinLen())
				}
			}
			if stretch(plan.boundFin(inflate(refined), dl)) < theta {
				continue
			}
		}

		// Full scoring, in plan (sorted-term) order — the exhaustive
		// accumulation order. Mid-scan, the already-accumulated prefix
		// plus the bound on the remaining suffix can prove the document
		// non-viable and abandon it early.
		raw := 0.0
		viable := true
		for i := range cursors {
			c := &cursors[i]
			c.cur.seek(cand)
			if !c.cur.done && c.cur.doc == cand {
				raw += c.pt.contrib(c.cur.tf, dl)
			}
			if full && stretch(plan.boundFin(inflate(raw+suffix[i+1]), dl)) < theta {
				viable = false
				break
			}
		}
		if !viable {
			continue
		}
		irScore := plan.finalize(raw, dl)
		final := irScore
		if booster != nil {
			final = booster.Final(0, g, irScore)
		}
		topk.offer(FinalHit{Doc: cand, Name: ix.names[cand], Score: final, IRScore: irScore})
		if th, ok := topk.threshold(); ok && (!full || th != theta) {
			theta, full = th, true
			repartition()
			if ness == len(order) {
				break
			}
		}
	}
	res := topk.hits()
	if sc != nil {
		sc.heap = res
	}
	return res
}

// finalTopK is a bounded min-heap of FinalHit with the (score desc,
// name asc) ranking order — TopK's logic over the boosted hit shape.
type finalTopK struct {
	k int
	h []FinalHit
}

// finalLess orders worst-first: lower score, reverse-name tiebreak.
func finalLess(a, b FinalHit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Name > b.Name
}

func (t *finalTopK) offer(h FinalHit) {
	if t.k <= 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, h)
		for i := len(t.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !finalLess(t.h[i], t.h[parent]) {
				break
			}
			t.h[i], t.h[parent] = t.h[parent], t.h[i]
			i = parent
		}
		return
	}
	if finalLess(t.h[0], h) {
		t.h[0] = h
		t.siftDown(0)
	}
}

func (t *finalTopK) siftDown(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && finalLess(t.h[l], t.h[small]) {
			small = l
		}
		if r < n && finalLess(t.h[r], t.h[small]) {
			small = r
		}
		if small == i {
			return
		}
		t.h[i], t.h[small] = t.h[small], t.h[i]
		i = small
	}
}

func (t *finalTopK) threshold() (float64, bool) {
	if len(t.h) < t.k {
		return 0, false
	}
	return t.h[0].Score, true
}

// hits sorts the heap in place into best-first order and returns the
// backing slice without copying — the allocation the per-query hot
// path used to pay per call. The accumulator is spent afterwards (the
// sort destroys the heap invariant): callers must not offer again, and
// callers that hand the slice across a scratch release must copy first.
func (t *finalTopK) hits() []FinalHit {
	slices.SortFunc(t.h, func(a, b FinalHit) int {
		if finalLess(b, a) {
			return -1
		}
		if finalLess(a, b) {
			return 1
		}
		return 0
	})
	return t.h
}
