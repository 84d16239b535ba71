package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// --- compressed posting-list mechanics --------------------------------------

// TestBlockEncodingRoundTrip appends enough postings to span several
// blocks and checks the cursor walks back exactly what went in, and
// that seek lands on the right postings when skipping whole blocks.
func TestBlockEncodingRoundTrip(t *testing.T) {
	ix := NewIndex()
	pl := &postingList{}
	var docs []int
	var tfs []float64
	d := 0
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3*blockSize+17; i++ {
		d += 1 + r.Intn(9)
		tf := 0.5 + float64(r.Intn(6))
		docs = append(docs, d)
		tfs = append(tfs, tf)
		pl.add(d, tf, 10)
	}
	// The cursor consults docLen for tombstones; mark every id live.
	ix.docLen = make([]float64, d+1)
	for _, doc := range docs {
		ix.docLen[doc] = 10
	}
	i := 0
	for c := newCursor(ix, pl); !c.done; c.next() {
		if c.doc != docs[i] || c.tf != tfs[i] {
			t.Fatalf("posting %d: got (%d,%v), want (%d,%v)", i, c.doc, c.tf, docs[i], tfs[i])
		}
		i++
	}
	if i != len(docs) {
		t.Fatalf("cursor yielded %d postings, want %d", i, len(docs))
	}
	if got := len(pl.blocks); got != (len(docs)+blockSize-1)/blockSize {
		t.Fatalf("block count = %d for %d postings", got, len(docs))
	}
	// Seek to each doc id and to the gaps between them.
	for trial := 0; trial < 200; trial++ {
		target := r.Intn(d + 3)
		want := -1
		for j, doc := range docs {
			if doc >= target {
				want = j
				break
			}
		}
		c := newCursor(ix, pl)
		c.seek(target)
		if want == -1 {
			if !c.done {
				t.Fatalf("seek(%d): got doc %d, want exhausted", target, c.doc)
			}
		} else if c.done || c.doc != docs[want] || c.tf != tfs[want] {
			t.Fatalf("seek(%d): got (%v,%d), want doc %d", target, c.done, c.doc, docs[want])
		}
	}
}

// TestCursorSkipsTombstones tombstones alternating documents and checks
// cursors and Postings never surface them, while block metadata keeps
// its stale (but safe) maxima.
func TestCursorSkipsTombstones(t *testing.T) {
	ix := NewShardedIndex(1)
	for i := 0; i < 2*blockSize; i++ {
		// Even docs carry the highest TF so tombstoning them leaves the
		// block MaxTF stale.
		w := 1.0
		if i%2 == 0 {
			w = 7
		}
		ix.MustAdd(fmt.Sprintf("doc%03d", i), Field{Text: "shared", Weight: w})
	}
	for i := 0; i < 2*blockSize; i += 2 {
		if err := ix.Remove(fmt.Sprintf("doc%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	shard := ix.shards[0]
	pl := shard.postings["shared"]
	if pl.live != blockSize {
		t.Fatalf("live = %d, want %d", pl.live, blockSize)
	}
	for c := newCursor(shard, pl); !c.done; c.next() {
		if c.doc%2 == 0 {
			t.Fatalf("cursor surfaced tombstoned doc %d", c.doc)
		}
		if c.tf != 1 {
			t.Fatalf("doc %d tf = %v", c.doc, c.tf)
		}
	}
	// Stale block metadata: the removed docs' TF 7 still backs MaxTF —
	// an overestimate, which is the safe direction for an upper bound.
	for _, b := range pl.blocks {
		if b.MaxTF != 7 {
			t.Fatalf("block MaxTF = %v, want stale 7", b.MaxTF)
		}
	}
	if got := len(shard.Postings("shared")); got != blockSize {
		t.Fatalf("Postings returned %d entries, want %d", got, blockSize)
	}
}

func TestTopKThreshold(t *testing.T) {
	tk := NewTopK(2)
	if _, ok := tk.Threshold(); ok {
		t.Fatal("empty accumulator reported a threshold")
	}
	tk.Offer(Hit{Name: "a", Score: 3})
	if _, ok := tk.Threshold(); ok {
		t.Fatal("non-full accumulator reported a threshold")
	}
	tk.Offer(Hit{Name: "b", Score: 1})
	if th, ok := tk.Threshold(); !ok || th != 1 {
		t.Fatalf("threshold = %v,%v, want 1,true", th, ok)
	}
	tk.Offer(Hit{Name: "c", Score: 2})
	if th, _ := tk.Threshold(); th != 2 {
		t.Fatalf("threshold after eviction = %v, want 2", th)
	}
}

// --- pruned ≡ exhaustive parity ---------------------------------------------

// parityScorers are every stock scorer configuration the engine can run.
var parityScorers = []Scorer{BM25{}, BM25{B: 0.3}, BM25{K1: 0.9, B: 1}, TFIDF{}}

// assertHitsIdentical requires bitwise-equal rankings: same documents,
// same names, same float64 score bits, same order.
func assertHitsIdentical(t *testing.T, label string, pruned, oracle []Hit) {
	t.Helper()
	if len(pruned) != len(oracle) {
		t.Fatalf("%s: %d hits pruned vs %d exhaustive\npruned: %v\noracle: %v", label, len(pruned), len(oracle), pruned, oracle)
	}
	for i := range pruned {
		if pruned[i] != oracle[i] {
			t.Fatalf("%s: hit %d differs\npruned: %+v\noracle: %+v", label, i, pruned[i], oracle[i])
		}
	}
}

// randomCorpusWords builds a small vocabulary with a skewed frequency
// profile so queries mix stop-word-like and rare terms.
func randomCorpusWords() []string {
	words := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		words = append(words, fmt.Sprintf("w%02d", i))
	}
	return words
}

func randomDoc(r *rand.Rand, words []string) []Field {
	n := 1 + r.Intn(25)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		// Skew toward low word ids: w00..w07 behave like stop words.
		w := words[r.Intn(len(words))]
		if r.Intn(2) == 0 {
			w = words[r.Intn(8)]
		}
		sb.WriteString(w)
		sb.WriteByte(' ')
	}
	fields := []Field{{Text: sb.String(), Weight: []float64{1, 2, 3}[r.Intn(3)]}}
	if r.Intn(3) == 0 {
		fields = append(fields, Field{Text: words[r.Intn(len(words))], Weight: 0.5})
	}
	return fields
}

func randomQuery(r *rand.Rand, words []string) string {
	n := 1 + r.Intn(5)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[r.Intn(len(words))]
	}
	return strings.Join(parts, " ")
}

// TestPrunedParityRandom is the core property test: over randomized
// corpora, shard counts, scorers, queries and k values, pruned top-k
// retrieval must be bitwise identical to the exhaustive oracle.
func TestPrunedParityRandom(t *testing.T) {
	words := randomCorpusWords()
	for trial := 0; trial < 30; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		shards := 1 + r.Intn(3)
		ix := NewShardedIndex(shards)
		nDocs := 5 + r.Intn(300)
		for i := 0; i < nDocs; i++ {
			ix.MustAdd(fmt.Sprintf("doc%04d", i), randomDoc(r, words)...)
		}
		for q := 0; q < 15; q++ {
			query := randomQuery(r, words)
			for _, scorer := range parityScorers {
				for _, k := range []int{1, 2, 3, 10, nDocs / 2, nDocs + 5} {
					if k <= 0 {
						continue
					}
					pruned := ix.Search(scorer, query, k)
					oracle := ix.Search(Exhaustive{S: scorer}, query, k)
					label := fmt.Sprintf("trial %d shards=%d scorer=%s q=%q k=%d", trial, shards, scorer.Name(), query, k)
					assertHitsIdentical(t, label, pruned, oracle)
				}
			}
		}
	}
}

// TestPrunedParityWithMutations interleaves Remove and re-Add with
// queries: tombstoned postings and stale block metadata must never
// change pruned results relative to the oracle.
func TestPrunedParityWithMutations(t *testing.T) {
	words := randomCorpusWords()
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(9000 + trial)))
		ix := NewShardedIndex(1 + r.Intn(3))
		names := make([]string, 0, 200)
		next := 0
		add := func() {
			name := fmt.Sprintf("doc%04d", next)
			next++
			ix.MustAdd(name, randomDoc(r, words)...)
			names = append(names, name)
		}
		for i := 0; i < 60; i++ {
			add()
		}
		for step := 0; step < 40; step++ {
			switch r.Intn(3) {
			case 0: // remove a random live doc
				if len(names) > 1 {
					i := r.Intn(len(names))
					if err := ix.Remove(names[i]); err != nil {
						t.Fatal(err)
					}
					names = append(names[:i], names[i+1:]...)
				}
			default:
				add()
			}
			query := randomQuery(r, words)
			scorer := parityScorers[r.Intn(len(parityScorers))]
			k := 1 + r.Intn(12)
			pruned := ix.Search(scorer, query, k)
			oracle := ix.Search(Exhaustive{S: scorer}, query, k)
			label := fmt.Sprintf("trial %d step %d scorer=%s q=%q k=%d", trial, step, scorer.Name(), query, k)
			assertHitsIdentical(t, label, pruned, oracle)
		}
	}
}

// TestPrunedParityStandaloneIndex covers the unsharded ir.Search entry
// point, including multi-block lists (every doc shares one term).
func TestPrunedParityStandaloneIndex(t *testing.T) {
	words := randomCorpusWords()
	r := rand.New(rand.NewSource(5))
	ix := NewIndex()
	for i := 0; i < 3*blockSize+40; i++ {
		fields := append(randomDoc(r, words), Field{Text: "shared"})
		ix.MustAdd(fmt.Sprintf("doc%04d", i), fields...)
	}
	for q := 0; q < 40; q++ {
		query := randomQuery(r, words)
		if r.Intn(2) == 0 {
			query += " shared"
		}
		for _, scorer := range parityScorers {
			k := 1 + r.Intn(15)
			pruned := Search(ix, scorer, query, k)
			oracle := Search(ix, Exhaustive{S: scorer}, query, k)
			assertHitsIdentical(t, fmt.Sprintf("scorer=%s q=%q k=%d", scorer.Name(), query, k), pruned, oracle)
		}
	}
}

// TestPrunedFallbackTinyTFs: weights below 1/e make lnc document
// weights negative, which the TFIDF pruning bounds cannot cover — the
// plan must refuse and the search must fall back, still returning
// oracle-identical results.
func TestPrunedFallbackTinyTFs(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 30; i++ {
		ix.MustAdd(fmt.Sprintf("doc%02d", i),
			Field{Text: "alpha beta", Weight: 0.25},
			Field{Text: "gamma"},
		)
	}
	if _, ok := (TFIDF{}).plan(ix, []string{"alpha"}, nil); ok {
		t.Fatal("TFIDF plan accepted a list with tf < 1/e")
	}
	for _, scorer := range parityScorers {
		pruned := Search(ix, scorer, "alpha gamma", 5)
		oracle := Search(ix, Exhaustive{S: scorer}, "alpha gamma", 5)
		assertHitsIdentical(t, scorer.Name(), pruned, oracle)
	}
}

// suffixBooster counts, for every query, the documents whose name ends
// in suffix, and leaves IR scores unchanged.
type suffixBooster struct {
	ix     *ShardedIndex
	suffix string
}

func (b suffixBooster) Counts(g, base int) uint64 {
	if strings.HasSuffix(b.ix.Name(g), b.suffix) {
		return ^uint64(0)
	}
	return 0
}

func (b suffixBooster) Final(q, g int, irScore float64) float64 { return irScore }

// TestCountCandidates checks the candidate count equals the exhaustive
// scorer's candidate set size, with and without a filter, and that the
// counts of a shard division sum to the full count.
func TestCountCandidates(t *testing.T) {
	words := randomCorpusWords()
	r := rand.New(rand.NewSource(11))
	ix := NewShardedIndex(3)
	for i := 0; i < 120; i++ {
		ix.MustAdd(fmt.Sprintf("doc%04d", i), randomDoc(r, words)...)
	}
	for i := 0; i < 120; i += 3 {
		if err := ix.Remove(fmt.Sprintf("doc%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	filter := suffixBooster{ix: ix, suffix: "1"}
	for q := 0; q < 20; q++ {
		query := randomQuery(r, words)
		terms := Tokenize(query)
		oracle := ix.Search(Exhaustive{S: BM25{}}, query, 0)
		if got := ix.CountCandidates(terms, nil, ShardSet{}); got != len(oracle) {
			t.Fatalf("q=%q: CountCandidates=%d, oracle candidates=%d", query, got, len(oracle))
		}
		want := 0
		for _, h := range oracle {
			if strings.HasSuffix(h.Name, filter.suffix) {
				want++
			}
		}
		if got := ix.CountCandidates(terms, filter, ShardSet{}); got != want {
			t.Fatalf("q=%q filtered: CountCandidates=%d, want %d", query, got, want)
		}
		sum := 0
		for i := 0; i < 2; i++ {
			sum += ix.CountCandidates(terms, filter, ShardSet{Index: i, Count: 2})
		}
		if sum != want {
			t.Fatalf("q=%q filtered: shard-subset counts sum to %d, want %d", query, sum, want)
		}
	}
}

// --- package microbench: the tentpole speedup -------------------------------

// benchTopKIndex builds a sharded index with Zipf-ish term frequencies
// large enough for pruning to matter.
func benchTopKIndex(nDocs, shards int) *ShardedIndex {
	words := make([]string, 200)
	for i := range words {
		words[i] = fmt.Sprintf("t%03d", i)
	}
	r := rand.New(rand.NewSource(7))
	ix := NewShardedIndex(shards)
	for i := 0; i < nDocs; i++ {
		var sb strings.Builder
		for j := 0; j < 24; j++ {
			// Zipf-ish: low ids are near-stop-words.
			w := words[r.Intn(len(words))]
			if r.Intn(3) > 0 {
				w = words[r.Intn(12)]
			}
			sb.WriteString(w)
			sb.WriteByte(' ')
		}
		ix.MustAdd(fmt.Sprintf("doc%06d", i), Field{Text: sb.String()})
	}
	return ix
}

func BenchmarkShardedTopK(b *testing.B) {
	ix := benchTopKIndex(20000, 1)
	for _, mode := range []struct {
		name   string
		scorer Scorer
	}{{"pruned", BM25{B: 0.3}}, {"exhaustive", Exhaustive{S: BM25{B: 0.3}}}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.Search(mode.scorer, "t001 t005 t150", 10)
			}
		})
	}
}
