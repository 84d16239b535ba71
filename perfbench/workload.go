package main

import (
	"math/rand"
	"time"

	"qunits/internal/imdb"
	"qunits/internal/loadgen"
	"qunits/internal/querylog"
	"qunits/internal/search"
)

// Every workload asks for k results per query; batches carry batchSize
// queries, the qunitsd default batch limit.
const (
	pageK     = 5
	batchSize = 32
	// headQueries is how many of the most frequent log queries head-hot
	// draws from: a quarter of the result cache, so they all stay cached.
	headQueries = 256
	// tailVolume is the volume of the log tail-cold and batch-cluster
	// draw from uniformly; its distinct queries outnumber the cache many
	// times over.
	tailVolume = 60000
	// logSeed fixes the query logs, like the corpus, so seeds vary only
	// the draws.
	logSeed = 1
	// castDefinition is the definition whose instances churn-rw takes out
	// of the index and puts back: the cast of one movie.
	castDefinition = "movie-cast"
)

// workload is one traffic mix. limit is the per-request latency under
// which a request's items count toward goodput.
type workload struct {
	name      string
	clustered bool
	batch     bool
	writes    bool
	limit     time.Duration
}

var workloads = []workload{
	{name: "head-hot", limit: 2 * time.Millisecond},
	{name: "tail-cold", limit: 50 * time.Millisecond},
	{name: "churn-rw", writes: true, limit: 100 * time.Millisecond},
	{name: "batch-cluster", clustered: true, batch: true, limit: 250 * time.Millisecond},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs are the generated requests of one workload: the query sampler
// (with feedback targets on churn-rw), the fixed probe set and, on
// churn-rw, the movies whose cast qunits it removes and re-adds. Nothing
// here depends on the program under test beyond the corpus it was
// generated from.
type inputs struct {
	spec   workload
	reads  *loadgen.Workload
	probes []string
	titles []string
}

func makeInputs(spec workload, u *imdb.Universe, e *search.Engine) *inputs {
	base := querylog.DefaultGenConfig()
	base.Seed = logSeed
	defLog := querylog.Generate(u, base)

	tailCfg := base
	tailCfg.Volume = tailVolume
	tailLog := querylog.Generate(u, tailCfg)

	in := &inputs{spec: spec, probes: probeSet(defLog, tailLog)}
	switch spec.name {
	case "head-hot":
		head := *defLog
		if len(head.Entries) > headQueries {
			head.Entries = head.Entries[:headQueries]
		}
		in.reads = loadgen.FromLog(&head)
	case "churn-rw":
		in.reads = loadgen.ForUniverse(u, logSeed, 0)
		in.titles = castTitles(u, e)
	default:
		in.reads = loadgen.FromLog(uniform(tailLog))
	}
	return in
}

// uniform flattens a log's frequencies so every distinct query is drawn
// equally often.
func uniform(l *querylog.Log) *querylog.Log {
	out := &querylog.Log{Entries: make([]querylog.Entry, len(l.Entries)), Total: len(l.Entries)}
	for i, e := range l.Entries {
		out.Entries[i] = querylog.Entry{Query: e.Query, Freq: 1}
	}
	return out
}

// probeSet is the fixed set of queries whose /v1 answers are compared
// with a direct engine search: the 16 most frequent queries of the
// default log and 16 spread over the tail log.
func probeSet(defLog, tailLog *querylog.Log) []string {
	var out []string
	for i := 0; i < 16 && i < len(defLog.Entries); i++ {
		out = append(out, defLog.Entries[i].Query)
	}
	for i := 0; i < 16; i++ {
		out = append(out, tailLog.Entries[i*len(tailLog.Entries)/16].Query)
	}
	return out
}

// castTitles lists, in corpus order, the movie titles that name exactly
// one movie and whose cast qunit the engine indexed at set-up.
func castTitles(u *imdb.Universe, e *search.Engine) []string {
	count := map[string]int{}
	for _, m := range u.Movies {
		count[m.Name]++
	}
	var out []string
	for _, m := range u.Movies {
		if _, ok := e.Instance(castID(m.Name)); ok && count[m.Name] == 1 {
			out = append(out, m.Name)
		}
	}
	return out
}

// castID is the instance ID of a movie's cast qunit.
func castID(title string) string { return castDefinition + ":" + title }

type opKind uint8

const (
	opSearch opKind = iota
	opBatch
	opFeedback
	opAdd
	opRemove
)

var opNames = [...]string{"search", "batch", "feedback", "add", "remove"}

// op is one request of a stream. target is the feedback instance ID;
// cast names the movie whose cast qunit a remove takes out or an add
// puts back, and the traced run's twin, which it removes and re-adds
// directly on the engine.
type op struct {
	kind     opKind
	queries  []string
	target   string
	positive bool
	cast     castPair
}

// castPair is a movie title and its twin, another title.
type castPair struct{ title, twin string }

// stream is one client's deterministic op sequence: the same seed,
// phase and client always give the same ops. pending holds the cast
// qunits the stream removed and has yet to put back; twins is set when
// the traced run removed their twins too.
type stream struct {
	in        *inputs
	r         *rand.Rand
	client    int
	drawn     int
	feedbacks int
	pending   []castPair
	twins     bool
}

func newStream(in *inputs, seed int64, phase, client int) *stream {
	return &stream{
		in:     in,
		r:      rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7919 + int64(client))),
		client: client,
	}
}

// churn-rw's write schedule, in ops of one stream: feedback every 25th
// op (4%), and in every block of 100 ops one remove and, 50 ops later,
// the add that puts its qunit back (1% each). A fixed schedule gives
// every run the same number of writes, so the slow population the tail
// percentile sits in does not change size from seed to seed. An add
// instantiates its qunit from the database and is far slower than any
// read, so adds fill the slowest 1% of requests; the reported tail, p98,
// is then a read's.
const (
	feedbackEvery = 25
	castEvery     = 100
	removeAt      = 10
	addAt         = removeAt + castEvery/2
)

// next draws the next op. churn-rw mixes in feedback and cast writes:
// a remove takes a real movie's cast qunit out of the index, and the
// add 50 ops later instantiates it again from the database, so the
// corpus keeps its size and every add indexes a whole qunit.
func (s *stream) next() op {
	s.drawn++
	if s.in.spec.batch {
		qs := make([]string, batchSize)
		for i := range qs {
			qs[i] = s.in.reads.Next(s.r, 0).Query
		}
		return op{kind: opBatch, queries: qs}
	}
	if s.in.spec.writes {
		switch {
		case s.drawn%castEvery == addAt && len(s.pending) > 0:
			p := s.pending[0]
			s.pending = s.pending[1:]
			return op{kind: opAdd, cast: p}
		case s.drawn%castEvery == removeAt:
			p := castPair{title: s.pick(0), twin: s.pick(1)}
			s.pending = append(s.pending, p)
			return op{kind: opRemove, cast: p}
		case s.drawn%feedbackEvery == 0:
			// Feedback moves its whole definition's utility, which scales
			// every later score and pruning bound. Alternating the sign
			// keeps that utility within a narrow band instead of letting a
			// random walk set the cost of the reads.
			s.feedbacks++
			fb := s.in.reads.Next(s.r, 1)
			return op{kind: opFeedback, target: fb.InstanceID, positive: s.feedbacks%2 == 1}
		}
	}
	return op{kind: opSearch, queries: []string{s.in.reads.Next(s.r, 0).Query}}
}

// pick draws a title. Each client owns its own share of the titles, one
// part for its removes and one for its twins, so concurrent streams
// never touch the same qunit; within a stream a title is put back before
// the next remove draws.
func (s *stream) pick(role int) string {
	stride := 2 * clients
	part := 2*s.client + role
	n := (len(s.in.titles) - part + stride - 1) / stride
	return s.in.titles[part+stride*s.r.Intn(n)]
}
