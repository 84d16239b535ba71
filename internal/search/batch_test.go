package search

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"qunits/internal/derive"
	"qunits/internal/imdb"
	"qunits/internal/ir"
)

// batchEngine builds an engine over the parity universe with the given
// shard count and scorer configuration.
func batchEngine(t *testing.T, shards int, scorer ir.Scorer, exhaustive bool) *Engine {
	t.Helper()
	u := imdb.MustGenerate(imdb.Config{Seed: 6, Persons: 120, Movies: 80, CastPerMovie: 5})
	cat, err := derive.Expert{}.Derive(u.DB)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cat, Options{
		Synonyms:         imdb.AttributeSynonyms(),
		Shards:           shards,
		Scorer:           scorer,
		ExhaustiveScorer: exhaustive,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBatchSerialParityFuzz is the amortized-batch parity property: a
// BatchSearch answer must be bitwise identical — result identity, every
// score component, totals, explain payloads — to running each item
// through Search serially on the same engine. The matrix covers shard
// counts, both prunable scorers at two parameterizations (the one-pass
// posting walk with its per-query MaxScore ceiling), and the exhaustive
// oracle (which forces the serial fallback inside BatchSearch), with
// randomized batches mixing k=0 (retain-all), duplicate items, and
// invalid items, interleaved with feedback so the utility blend — and
// with it the skip ceiling — keeps moving. Anchored entity queries
// ("star wars" …) keep the anchor-exempt path under the ceiling hot.
// A final oversize batch of more than 64 distinct items runs as several
// query groups, so every group's queries reach the booster under the
// batch's own numbering.
func TestBatchSerialParityFuzz(t *testing.T) {
	ctx := context.Background()
	configs := []struct {
		name       string
		scorer     ir.Scorer
		exhaustive bool
		shards     []int
	}{
		{"bm25-default", nil, false, []int{1, 2, 4}},
		{"bm25-pure", ir.BM25{}, false, []int{2}},
		{"tfidf", ir.TFIDF{}, false, []int{3}},
		{"exhaustive-fallback", nil, true, []int{2}},
	}
	for _, cfg := range configs {
		for _, shards := range cfg.shards {
			t.Run(fmt.Sprintf("%s/shards=%d", cfg.name, shards), func(t *testing.T) {
				e := batchEngine(t, shards, cfg.scorer, cfg.exhaustive)
				r := rand.New(rand.NewSource(int64(900 + shards)))
				check := func(round int, reqs []Request) {
					t.Helper()
					batch := e.BatchSearch(ctx, reqs)
					if len(batch) != len(reqs) {
						t.Fatalf("round %d: %d outcomes for %d items", round, len(batch), len(reqs))
					}
					for i, req := range reqs {
						want, wantErr := e.Search(ctx, req)
						got := batch[i]
						if (wantErr == nil) != (got.Err == nil) {
							t.Fatalf("round %d item %d %+v: batch err %v, serial err %v", round, i, req, got.Err, wantErr)
						}
						if wantErr != nil {
							if got.Err.Error() != wantErr.Error() {
								t.Fatalf("round %d item %d: batch err %q, serial err %q", round, i, got.Err, wantErr)
							}
							continue
						}
						assertResponsesIdentical(t,
							fmt.Sprintf("round=%d item=%d req=%+v", round, i, req),
							want, got.Response)
					}
				}
				const rounds = 25
				for round := 0; round < rounds; round++ {
					if round%5 == 4 {
						// Shift a utility so the blend bound (and the skip
						// ceiling derived from it) changes between rounds.
						if res := searchTopK(e, "star wars cast", 3); len(res) > 0 {
							id := res[r.Intn(len(res))].Instance.ID()
							if _, err := e.ApplyFeedback(id, r.Intn(2) == 0, Feedback{}); err != nil {
								t.Fatal(err)
							}
						}
					}
					n := 1 + r.Intn(10)
					reqs := make([]Request, 0, n+3)
					for i := 0; i < n; i++ {
						req := randomRequest(r)
						if r.Intn(4) == 0 {
							req.K = 0 // keep every hit
						}
						reqs = append(reqs, req)
					}
					if len(reqs) > 1 && r.Intn(2) == 0 {
						reqs = append(reqs, reqs[r.Intn(len(reqs))]) // duplicate item
					}
					if r.Intn(3) == 0 {
						reqs = append(reqs, Request{Query: "   "}) // invalid: blank
					}
					if r.Intn(4) == 0 {
						reqs = append(reqs, Request{Query: "star wars", K: -1}) // invalid: negative k
					}
					check(round, reqs)
				}
				seen := map[string]bool{}
				var reqs []Request
				for len(reqs) < 2*64+7 {
					req := randomRequest(r)
					if r.Intn(4) == 0 {
						req.K = 0
					}
					if key := req.CacheKey(); !seen[key] {
						seen[key] = true
						reqs = append(reqs, req)
					}
				}
				check(rounds, reqs)
			})
		}
	}
}

// TestBatchDuplicateResponsesNotAliased is the regression test for the
// duplicate-item aliasing bug: duplicate batch items used to share one
// *Response, so a caller mutating its copy silently corrupted the
// other's. Mutating one twin — deeply, through every reachable slice —
// must leave the other bitwise identical to a fresh serial answer.
func TestBatchDuplicateResponsesNotAliased(t *testing.T) {
	ctx := context.Background()
	e := batchEngine(t, 2, nil, false)
	req := Request{Query: "star wars cast", K: 5, Explain: true}
	batch := e.BatchSearch(ctx, []Request{req, {Query: "george clooney", K: 5}, req})
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
	}
	a, b := batch[0].Response, batch[2].Response
	if a == b {
		t.Fatal("duplicate items returned one shared *Response")
	}
	want, err := e.Search(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) == 0 || a.Explain == nil {
		t.Fatalf("degenerate response, can't exercise aliasing: %+v", a)
	}
	// Vandalize the first twin.
	a.Total = -1
	for i := range a.Results {
		a.Results[i].Score = -1
		a.Results[i].IRScore = -1
		a.Results[i].Instance = nil
	}
	a.Explain.Template = "mutated"
	for i := range a.Explain.Segments {
		a.Explain.Segments[i].Text = "mutated"
	}
	for i := range a.Explain.Affinities {
		a.Explain.Affinities[i].Affinity = -1
	}
	// The second twin is untouched.
	assertResponsesIdentical(t, "duplicate twin", want, b)
}
