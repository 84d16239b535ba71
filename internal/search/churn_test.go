package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"qunits/internal/core"
	"qunits/internal/derive"
	"qunits/internal/imdb"
)

// compactEngineWith builds a small engine for compaction tests; the
// exhaustive flag selects the oracle scoring path.
func compactEngineWith(t *testing.T, exhaustive bool) *Engine {
	t.Helper()
	u := imdb.MustGenerate(imdb.Config{Seed: 6, Persons: 90, Movies: 70, CastPerMovie: 4})
	cat, err := derive.Expert{}.Derive(u.DB)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cat, Options{Synonyms: imdb.AttributeSynonyms(), Shards: 3, ExhaustiveScorer: exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var compactParityQueries = []string{
	"star wars cast",
	"george clooney",
	"soundtrack",
	"movies",
	"churn qunit",
	"nonsense zz yy",
}

// assertDocColumn checks the eager doc-id-keyed instance column against
// the index and the instance map: every slot g holds exactly the
// instance indexed under Name(g), nil for tombstones.
func assertDocColumn(t *testing.T, label string, e *Engine) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.byDoc) != e.index.Slots() {
		t.Fatalf("%s: byDoc has %d slots, index %d", label, len(e.byDoc), e.index.Slots())
	}
	id := func(inst *core.Instance) string {
		if inst == nil {
			return "<nil>"
		}
		return inst.ID()
	}
	for g, inst := range e.byDoc {
		if want := e.instances[e.index.Name(g)]; inst != want {
			t.Fatalf("%s: byDoc[%d] = %s, want %s", label, g, id(inst), id(want))
		}
	}
}

// TestEngineCompactParity is the engine-level compaction contract:
// after a mutation history (adds, removes, feedback), Compact() must
// leave every search response — pruned path and exhaustive oracle,
// across k values and offsets — bitwise identical, while reclaiming
// every tombstoned slot. The doc-id-keyed instance column must track
// every step, a snapshot round trip included.
func TestEngineCompactParity(t *testing.T) {
	ctx := context.Background()
	pruned := compactEngineWith(t, false)
	oracle := compactEngineWith(t, true)
	mutate := func(e *Engine) {
		for i := 0; i < 8; i++ {
			if _, err := e.AddAnchorInstance("movie-cast", fmt.Sprintf("churn qunit %d", i)); err != nil {
				t.Fatal(err)
			}
		}
		ids := e.InstanceIDs()
		for i := 0; i < len(ids); i += 3 {
			if err := e.RemoveInstance(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.ApplyFeedback(e.InstanceIDs()[0], true, Feedback{}); err != nil {
			t.Fatal(err)
		}
	}
	mutate(pruned)
	mutate(oracle)
	assertDocColumn(t, "after adds and removes", pruned)
	st, err := pruned.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(pruned.Catalog().DB(), st)
	if err != nil {
		t.Fatal(err)
	}
	if restored.IndexStats().Tombstones == 0 {
		t.Fatal("restored engine lost the tombstones")
	}
	assertDocColumn(t, "after a dump/restore round trip", restored)

	type page struct {
		q      string
		k, off int
	}
	var pages []page
	for _, q := range compactParityQueries {
		for _, k := range []int{1, 5, 40} {
			for _, off := range []int{0, 3} {
				pages = append(pages, page{q, k, off})
			}
		}
	}
	before := make([]*Response, len(pages))
	for i, p := range pages {
		resp, err := pruned.Search(ctx, Request{Query: p.q, K: p.k, Offset: p.off})
		if err != nil {
			t.Fatal(err)
		}
		before[i] = resp
	}

	if st := pruned.IndexStats(); st.Tombstones == 0 {
		t.Fatal("test needs tombstones before compaction")
	}
	res, err := pruned.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedSlots == 0 || res.SlotsAfter != res.Live || res.Compactions != 1 {
		t.Fatalf("unexpected compaction result: %+v", res)
	}
	if st := pruned.IndexStats(); st.Tombstones != 0 || st.Slots != st.Live {
		t.Fatalf("index not dense after compaction: %+v", st)
	}
	assertDocColumn(t, "after compaction", pruned)
	if pruned.Compactions() != 1 || pruned.SlotsReclaimed() != int64(res.ReclaimedSlots) {
		t.Fatalf("counters: %d passes, %d reclaimed", pruned.Compactions(), pruned.SlotsReclaimed())
	}

	for i, p := range pages {
		label := fmt.Sprintf("q=%q k=%d off=%d", p.q, p.k, p.off)
		after, err := pruned.Search(ctx, Request{Query: p.q, K: p.k, Offset: p.off})
		if err != nil {
			t.Fatal(err)
		}
		assertResponsesIdentical(t, label+" (pre vs post compaction)", before[i], after)
		want, err := oracle.Search(ctx, Request{Query: p.q, K: p.k, Offset: p.off})
		if err != nil {
			t.Fatal(err)
		}
		assertResponsesIdentical(t, label+" (compacted pruned vs exhaustive oracle)", want, after)
	}
}

// churnOp is one recorded mutation of the churn soak, replayed in
// commit order onto the mirror engine.
type churnOp struct {
	kind     int // 0 add, 1 remove, 2 feedback
	anchor   string
	id       string
	positive bool
	failed   bool
}

// churnScale returns the per-mutator operation count: the default keeps
// `go test -race ./internal/search` quick; QUNITS_SOAK=1 (make soak)
// runs the long churn.
func churnScale() int {
	if os.Getenv("QUNITS_SOAK") != "" {
		return 250
	}
	return 40
}

// TestChurnSoakCompaction is the availability-and-parity soak: N
// goroutines mutate (add/remove/feedback), M goroutines search, and a
// compactor loops Compact() while removals also auto-trigger passes —
// all under the race detector. Mutations are serialized through the op
// log's mutex (the engine serializes them anyway; the log must record
// the true commit order), searches and compactions run fully
// concurrently. Afterwards the whole history is replayed sequentially
// into a mirror engine that never compacts, and the two engines must
// answer every probe query bitwise identically — proving no mutation
// was lost or torn across any epoch swap.
func TestChurnSoakCompaction(t *testing.T) {
	const mutators, searchers = 3, 3
	ops := churnScale()
	ctx := context.Background()

	live := compactEngineWith(t, false)
	live.SetAutoCompact(0.15)
	originals := live.InstanceIDs()

	var logMu sync.Mutex
	var log []churnOp
	apply := func(e *Engine, op churnOp) bool {
		var err error
		switch op.kind {
		case 0:
			_, err = e.AddAnchorInstance("movie-cast", op.anchor)
		case 1:
			err = e.RemoveInstance(op.id)
		case 2:
			_, err = e.ApplyFeedback(op.id, op.positive, Feedback{})
		}
		return err != nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Searchers: hammer the read path for the whole storm and assert
	// every response is well-formed — available, ordered, finite.
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := compactParityQueries[r.Intn(len(compactParityQueries))]
				resp, err := live.Search(ctx, Request{Query: q, K: 1 + r.Intn(10), Offset: r.Intn(3)})
				if err != nil {
					t.Errorf("searcher %d: %v", g, err)
					return
				}
				prev := math.Inf(1)
				for _, res := range resp.Results {
					if math.IsNaN(res.Score) || res.Score > prev {
						t.Errorf("searcher %d: torn ranking for %q: %v after %v", g, q, res.Score, prev)
						return
					}
					prev = res.Score
				}
				if st := live.IndexStats(); st.Tombstones < 0 || st.Live > st.Slots {
					t.Errorf("searcher %d: impossible index stats %+v", g, st)
					return
				}
			}
		}(g)
	}
	// Compactor: explicit passes racing the mutators' auto-triggered
	// ones; the pass counter must be strictly monotone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := live.Compact()
			if err != nil {
				t.Errorf("compactor: %v", err)
				return
			}
			if res.Compactions <= last {
				t.Errorf("compactor: pass counter went %d -> %d", last, res.Compactions)
				return
			}
			last = res.Compactions
		}
	}()
	// Mutators: each owns a disjoint anchor namespace and a disjoint
	// partition of the original instances, so op outcomes are
	// deterministic given the log order.
	var mwg sync.WaitGroup
	for g := 0; g < mutators; g++ {
		mwg.Add(1)
		go func(g int) {
			defer mwg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			var mine []string // ids this goroutine added or owns and believes live
			for i := range originals {
				if i%mutators == g {
					mine = append(mine, originals[i])
				}
			}
			for i := 0; i < ops; i++ {
				var op churnOp
				switch r.Intn(4) {
				case 0, 1:
					op = churnOp{kind: 0, anchor: fmt.Sprintf("churn qunit g%d n%d", g, i)}
				case 2:
					if len(mine) == 0 {
						continue
					}
					op = churnOp{kind: 1, id: mine[r.Intn(len(mine))]}
				default:
					if len(mine) == 0 {
						continue
					}
					op = churnOp{kind: 2, id: mine[r.Intn(len(mine))], positive: r.Intn(2) == 0}
				}
				logMu.Lock()
				op.failed = apply(live, op)
				log = append(log, op)
				logMu.Unlock()
				switch {
				case op.kind == 0 && !op.failed:
					mine = append(mine, "movie-cast:"+op.anchor)
				case op.kind == 1 && !op.failed:
					for j, id := range mine {
						if id == op.id {
							mine = append(mine[:j], mine[j+1:]...)
							break
						}
					}
				}
			}
		}(g)
	}
	mwg.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// One final pass so the compacted state itself is what parity is
	// proven on.
	if _, err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := live.IndexStats(); st.Tombstones != 0 {
		t.Fatalf("tombstones survived the final pass: %+v", st)
	}

	// Sequential mirror: same construction, same ops in commit order,
	// no compaction — the reference the paper's "instances evolve with
	// the database" state must equal.
	mirror := compactEngineWith(t, false)
	for i, op := range log {
		if failed := apply(mirror, op); failed != op.failed {
			t.Fatalf("replay op %d (%+v): failed=%v on mirror, %v live", i, op, failed, op.failed)
		}
	}
	if live.InstanceCount() != mirror.InstanceCount() {
		t.Fatalf("instance counts diverged: live %d, mirror %d", live.InstanceCount(), mirror.InstanceCount())
	}
	probes := append([]string{}, compactParityQueries...)
	for g := 0; g < mutators; g++ {
		probes = append(probes, fmt.Sprintf("churn qunit g%d", g))
	}
	for _, q := range probes {
		for _, k := range []int{1, 5, 25} {
			got, err := live.Search(ctx, Request{Query: q, K: k})
			if err != nil {
				t.Fatal(err)
			}
			want, err := mirror.Search(ctx, Request{Query: q, K: k})
			if err != nil {
				t.Fatal(err)
			}
			assertResponsesIdentical(t, fmt.Sprintf("q=%q k=%d (churned+compacted vs sequential mirror)", q, k), want, got)
		}
	}
}
