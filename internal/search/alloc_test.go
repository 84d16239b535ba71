package search

import (
	"context"
	"testing"

	"qunits/internal/derive"
	"qunits/internal/imdb"
)

// TestEngineSearchAllocs pins the allocation ceiling of one pruned
// engine-level Search on the top-k IMDb fixture (the corpus
// BenchmarkTopKScoring runs), with and without a definition filter.
// Allocation counts are exact and machine-independent once the shard
// count is fixed (each shard adds its goroutine and scratch), so the
// fixture pins two shards. The ceilings (170 and 127) sit above the
// measured 136 and 93; anything above them means a per-request or
// per-candidate allocation crept onto the hot path.
func TestEngineSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	u := imdb.MustGenerate(imdb.Config{Seed: 9, Persons: 2500, Movies: 1500, CastPerMovie: 6})
	cat, err := derive.Expert{}.Derive(u.DB)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cat, Options{Synonyms: imdb.AttributeSynonyms(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		req    Request
		budget float64
	}{
		{"unfiltered", Request{Query: "star wars cast", K: 10}, 170},
		{"movie-cast", Request{Query: "star wars cast", K: 10, Filter: Filter{Definitions: []string{"movie-cast"}}}, 127},
	} {
		search := func() {
			if _, err := e.Search(ctx, tc.req); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			search()
		}
		got := testing.AllocsPerRun(50, search)
		t.Logf("%s: %.1f allocs/op", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: engine Search allocates %.1f objects/op, ceiling %.0f", tc.name, got, tc.budget)
		}
	}
}
