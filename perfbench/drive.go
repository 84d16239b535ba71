package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// clients is the closed-loop concurrency: one client per CPU of the
// 2-CPU reference machine, each on its own connection, each sending its
// next request only when the previous reply has been read.
const clients = 2

// client is one closed-loop HTTP client with one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	body []byte
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// searchReply is the part of a /v1 search reply the checks read.
type searchReply struct {
	Query   string          `json:"query"`
	K       int             `json:"k"`
	Total   int             `json:"total"`
	Cached  bool            `json:"cached"`
	Results json.RawMessage `json:"results"`
}

type batchReply struct {
	Items []struct {
		Response *searchReply    `json:"response"`
		Error    json.RawMessage `json:"error"`
	} `json:"items"`
}

// reply is what one request returned: the decoded search pages (one per
// query, in order) and the body size.
type reply struct {
	pages []*searchReply
	bytes int
}

type searchItem struct {
	Query string `json:"query"`
	K     int    `json:"k"`
}

// do sends one op and checks the reply's shape: the status, one page
// per query echoing its query and k, and the fields a write returns. A
// span header, when non-negative, ties the server's span to the
// client's.
func (c *client) do(o op, span int32) (reply, error) {
	var (
		method = http.MethodPost
		path   string
		body   any
		want   = http.StatusOK
	)
	switch o.kind {
	case opSearch:
		path, body = "/v1/search", searchItem{Query: o.queries[0], K: pageK}
	case opBatch:
		items := make([]searchItem, len(o.queries))
		for i, q := range o.queries {
			items[i] = searchItem{Query: q, K: pageK}
		}
		path, body = "/v1/search", struct {
			Queries []searchItem `json:"queries"`
		}{items}
	case opFeedback:
		path, body = "/v1/feedback", struct {
			InstanceID string `json:"instance_id"`
			Positive   bool   `json:"positive"`
		}{o.target, o.positive}
	case opAdd:
		path, want = "/v1/instances", http.StatusCreated
		body = struct {
			Definition string `json:"definition"`
			Anchor     string `json:"anchor"`
		}{castDefinition, o.cast.title}
	case opRemove:
		method, path = http.MethodDelete, "/v1/instances/"+url.PathEscape(castID(o.cast.title))
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return reply{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf := bytes.NewBuffer(c.body[:0])
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.body = buf.Bytes()
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != want {
		return reply{}, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, c.body)
	}
	rep := reply{bytes: len(c.body)}
	switch o.kind {
	case opSearch:
		var p searchReply
		if err := json.Unmarshal(c.body, &p); err != nil {
			return reply{}, err
		}
		rep.pages = []*searchReply{&p}
	case opBatch:
		var b batchReply
		if err := json.Unmarshal(c.body, &b); err != nil {
			return reply{}, err
		}
		if len(b.Items) != len(o.queries) {
			return reply{}, fmt.Errorf("batch of %d returned %d items", len(o.queries), len(b.Items))
		}
		for i, it := range b.Items {
			if it.Response == nil {
				return reply{}, fmt.Errorf("batch item %d failed: %s", i, it.Error)
			}
			rep.pages = append(rep.pages, it.Response)
		}
	case opFeedback:
		var f struct {
			InstanceID string  `json:"instance_id"`
			Utility    float64 `json:"utility"`
		}
		if err := json.Unmarshal(c.body, &f); err != nil {
			return reply{}, err
		}
		if f.InstanceID != o.target || !(f.Utility > 0 && f.Utility <= 1) {
			return reply{}, fmt.Errorf("feedback on %q answered %q with utility %v", o.target, f.InstanceID, f.Utility)
		}
	case opAdd, opRemove:
		var inst struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(c.body, &inst); err != nil {
			return reply{}, err
		}
		if want := castID(o.cast.title); inst.ID != want {
			return reply{}, fmt.Errorf("%s of %q answered %q", opNames[o.kind], want, inst.ID)
		}
	}
	for i, p := range rep.pages {
		if p.Query != o.queries[i] || p.K != pageK {
			return reply{}, fmt.Errorf("query %q k=%d answered as %q k=%d", o.queries[i], pageK, p.Query, p.K)
		}
	}
	return rep, nil
}

// sample is one observed search page kept for the check against a
// direct engine search after the run.
type sample struct {
	query   string
	total   int
	results []byte
}

// tally is what one closed-loop pass observed.
type tally struct {
	attempted, failed int
	items, good       int
	hits, lookups     int
	bytes             int64
	lat               []float64 // per request, ms
	kindN             [len(opNames)]int
	kindMS            [len(opNames)]float64 // summed latency per op kind
	samples           []sample
	elapsed           time.Duration
	firstErr          error
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.items += o.items
	t.good += o.good
	t.hits += o.hits
	t.lookups += o.lookups
	t.bytes += o.bytes
	t.lat = append(t.lat, o.lat...)
	for k := range t.kindN {
		t.kindN[k] += o.kindN[k]
		t.kindMS[k] += o.kindMS[k]
	}
	t.samples = append(t.samples, o.samples...)
	if o.elapsed > t.elapsed {
		t.elapsed = o.elapsed
	}
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// add counts requests made and failed outside a closed-loop pass.
func (t *tally) add(attempted, failed int, firstErr error) {
	t.attempted += attempted
	t.failed += failed
	if t.firstErr == nil {
		t.firstErr = firstErr
	}
}

// fail records a failed request.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// samplesPerClient bounds the pages each client keeps for the direct
// re-check; one page in sampleStride is kept.
const (
	samplesPerClient = 48
	sampleStride     = 8
)

// exec sends one op and records the outcome.
func exec(c *client, o op, limit time.Duration, keep bool, t *tally) {
	start := time.Now()
	rep, err := c.do(o, -1)
	lat := time.Since(start)
	t.attempted++
	if err != nil {
		t.fail(err)
		return
	}
	n := len(o.queries)
	if n == 0 {
		n = 1
	}
	t.items += n
	if lat <= limit {
		t.good += n
	}
	t.bytes += int64(rep.bytes)
	t.lat = append(t.lat, ms(lat))
	t.kindN[o.kind]++
	t.kindMS[o.kind] += ms(lat)
	for _, p := range rep.pages {
		t.lookups++
		if p.Cached {
			t.hits++
		}
	}
	if keep && len(rep.pages) > 0 && t.attempted%sampleStride == 0 && len(t.samples) < samplesPerClient {
		p := rep.pages[t.attempted/sampleStride%len(rep.pages)]
		t.samples = append(t.samples, sample{query: p.Query, total: p.Total, results: p.Results})
	}
}

// drive runs every client closed-loop over its stream for d and merges
// what they saw. Requests started before the deadline finish; elapsed is
// the time to the last reply. keep asks for sampled pages, which only a
// read-only workload can re-check after the run.
func drive(cs []*client, ss []*stream, d, limit time.Duration, keep bool) *tally {
	parts := make([]tally, len(cs))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &parts[i]
			for time.Now().Before(deadline) {
				exec(cs[i], ss[i].next(), limit, keep, t)
			}
			t.elapsed = time.Since(start)
		}(i)
	}
	wg.Wait()
	total := &tally{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// warmUp drives the workload untimed until the lazy state has settled —
// the result cache, the engine's doc-instance cache, pools, the GC heap
// target — judged by one-second windows: at least two, then until a
// window's throughput is within 10% of the one before and its cache hit
// ratio has stopped rising, at most four. It returns what it saw, so
// failures during warm-up still count.
func warmUp(cs []*client, ss []*stream, limit time.Duration) *tally {
	const (
		window  = time.Second
		windows = 4
	)
	all := &tally{}
	prevRate, prevHit := 0.0, 0.0
	for i := 0; i < windows; i++ {
		t := drive(cs, ss, window, limit, false)
		all.merge(t)
		rate := float64(t.items) / t.elapsed.Seconds()
		hit := ratio(float64(t.hits), float64(t.lookups))
		if i > 0 && rate > 0.9*prevRate && rate < 1.1*prevRate && hit <= prevHit+0.01 {
			break
		}
		prevRate, prevHit = rate, hit
	}
	all.lat, all.elapsed = nil, 0
	return all
}

// drain puts back the cast qunits a churn-rw stream took out and has
// not yet re-added, and their twins when the traced run removed them,
// so the run ends on the corpus it started with.
func drain(st *stack, c *client, s *stream, t *tally) {
	for _, p := range s.pending {
		t.attempted++
		if _, err := c.do(op{kind: opAdd, cast: p}, -1); err != nil {
			t.fail(err)
		}
		if s.twins {
			t.attempted++
			if _, err := st.engine.AddAnchorInstance(castDefinition, p.twin); err != nil {
				t.fail(fmt.Errorf("re-adding twin %q: %w", p.twin, err))
			}
		}
	}
	s.pending = nil
}
