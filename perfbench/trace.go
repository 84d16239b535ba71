package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qunits/internal/search"
)

// spanHeader carries the client.request span index to the server side,
// so server.serve can name its parent.
const spanHeader = "X-Perfbench-Span"

// span is one timed call. Spans of one op share op; parent is the index
// of the enclosing span, or -1.
type span struct {
	op         int32
	name       string
	parent     int32
	start, end time.Duration // since the trace began
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(op int32, name string, parent int32) int32 {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op: op, name: name, parent: parent, start: now})
	return int32(len(t.spans) - 1)
}

// child opens a span under parent, in parent's op.
func (t *tracer) child(parent int32, name string) int32 {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op: t.spans[parent].op, name: name, parent: parent, start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

func (t *tracer) dur(i int32) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].end - t.spans[i].start
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i, s := range t.spans {
		err = enc.Encode(struct {
			ID      int     `json:"id"`
			Op      int32   `json:"op"`
			Name    string  `json:"name"`
			Parent  int32   `json:"parent"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{i, s.op, s.name, s.parent, us(s.start), us(s.end)})
		if err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceHandler wraps the front server. While a tracer is installed it
// records a server.serve span around Server.ServeHTTP for every request
// that carries a span header; otherwise it only forwards.
type traceHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if tr == nil || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	i := tr.child(int32(parent), "server.serve")
	h.next.ServeHTTP(w, r)
	tr.end(i)
}

// layerSamples gathers per-op durations and counts from the traced
// replay.
type layerSamples struct {
	transport, serveHit, serveMiss, missSelf []float64
	search, batchItem, segment               []float64
	feedback, add, remove                    []float64
	clusterBatch, partitionMax, overhead     []float64
	request                                  []float64
	candidates, results, entities, segments  int
}

// pairChunk is how many consecutive reads go over HTTP back to back
// before their paired direct calls run, so the traced requests see the
// same back-to-back load as the untraced ones.
const pairChunk = 64

// sent is one traced request waiting for its paired calls.
type sent struct {
	id   int32
	o    op
	rep  reply
	root int32
}

// traceReplay is the traced run: one client replays the stream in
// order. Around each request it records client.request, with the
// server's server.serve as its child. Then it makes the paired direct
// calls into the layers below on the same engine state: reads in chunks
// of up to pairChunk after their requests, as the state cannot change
// between reads; a write right after its request, repeated on a twin
// (the same feedback again; the cast qunit of the op's twin movie taken
// out or put back), so the result cache, purged by the HTTP write, stays
// consistent with the engine. Every search page is checked against its
// paired engine answer.
func traceReplay(st *stack, c *client, s *stream, d time.Duration, t *tally) (*tracer, *layerSamples) {
	s.twins = true
	tr := newTracer()
	st.front.tr.Store(tr)
	defer st.front.tr.Store(nil)
	ls := &layerSamples{}
	ctx := context.Background()
	seg := st.engine.Segmenter()
	timed := func(opID int32, name string, f func() error) time.Duration {
		i := tr.begin(opID, name, -1)
		err := f()
		tr.end(i)
		if err != nil {
			t.fail(err)
		}
		return tr.dur(i)
	}

	var chunk []sent
	pairReads := func() {
		for _, r := range chunk {
			reqs := make([]search.Request, len(r.o.queries))
			for i, q := range r.o.queries {
				reqs[i] = search.Request{Query: q, K: pageK}
			}
			direct := make([]*search.Response, len(reqs))
			if r.o.kind == opSearch {
				dd := timed(r.id, "search.search", func() (err error) {
					direct[0], err = st.engine.Search(ctx, reqs[0])
					return err
				})
				ls.search = append(ls.search, us(dd))
				serve := serveSpan(tr, r.root)
				if r.rep.pages[0].Cached {
					ls.serveHit = append(ls.serveHit, us(serve))
				} else {
					ls.serveMiss = append(ls.serveMiss, us(serve))
					ls.missSelf = append(ls.missSelf, us(serve-dd))
				}
			} else {
				dd := timed(r.id, "search.batch", func() error {
					for i, br := range st.engine.BatchSearch(ctx, reqs) {
						if br.Err != nil {
							return br.Err
						}
						direct[i] = br.Response
					}
					return nil
				})
				ls.batchItem = append(ls.batchItem, us(dd)/float64(len(reqs)))
				cb := timed(r.id, "cluster.batch", func() error {
					_, err := st.coord.Batch(ctx, reqs)
					return err
				})
				var slowest time.Duration
				for _, set := range st.sets {
					slowest = max(slowest, timed(r.id, "cluster.partition", func() error {
						_, err := st.engine.PartitionBatchSearch(ctx, reqs, set)
						return err
					}))
				}
				ls.clusterBatch = append(ls.clusterBatch, us(cb))
				ls.partitionMax = append(ls.partitionMax, us(slowest))
				ls.overhead = append(ls.overhead, us(cb-slowest))
			}
			for i, q := range r.o.queries {
				var n int
				dd := timed(r.id, "segment.segment", func() error {
					n = len(seg.Segment(q).Entities())
					return nil
				})
				ls.segment = append(ls.segment, us(dd))
				ls.entities += n
				ls.segments++
				if p := r.rep.pages[i]; direct[i] != nil {
					if err := agree(p.Query, p.Total, p.Results, direct[i]); err != nil {
						t.fail(err)
					}
					ls.candidates += direct[i].Total
					ls.results += len(direct[i].Results)
				}
			}
		}
		chunk = chunk[:0]
	}

	deadline := time.Now().Add(d)
	for opID := int32(0); time.Now().Before(deadline); opID++ {
		o := s.next()
		write := o.kind > opBatch
		if write {
			pairReads()
		}
		root := tr.begin(opID, "client.request", -1)
		start := time.Now()
		rep, err := c.do(o, root)
		lat := time.Since(start)
		tr.end(root)
		t.attempted++
		if err != nil {
			t.fail(err)
			continue
		}
		t.items += max(len(o.queries), 1)
		ls.request = append(ls.request, ms(lat))
		ls.transport = append(ls.transport, us(tr.dur(root)-serveSpan(tr, root)))

		switch o.kind {
		case opSearch, opBatch:
			chunk = append(chunk, sent{id: opID, o: o, rep: rep, root: root})
			if len(chunk) == pairChunk {
				pairReads()
			}
		case opFeedback:
			ls.feedback = append(ls.feedback, us(timed(opID, "search.feedback", func() error {
				_, err := st.engine.ApplyFeedback(o.target, o.positive, search.Feedback{})
				return err
			})))
		case opAdd:
			ls.add = append(ls.add, us(timed(opID, "search.add", func() error {
				_, err := st.engine.AddAnchorInstance(castDefinition, o.cast.twin)
				return err
			})))
		case opRemove:
			ls.remove = append(ls.remove, us(timed(opID, "search.remove", func() error {
				return st.engine.RemoveInstance(castID(o.cast.twin))
			})))
		}
	}
	pairReads()
	return tr, ls
}

// serveSpan is the duration of the server.serve child of a request span.
func serveSpan(tr *tracer, parent int32) time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := len(tr.spans) - 1; i > int(parent); i-- {
		if tr.spans[i].parent == parent && tr.spans[i].name == "server.serve" {
			return tr.spans[i].end - tr.spans[i].start
		}
	}
	return 0
}
