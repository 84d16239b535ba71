package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"qunits/internal/cluster"
	"qunits/internal/search"
)

// expected is what the /v1 surface must return for one query: the exact
// wire bytes of a direct engine search's results, and its total.
func expected(resp *search.Response) (total int, results []byte, err error) {
	b, err := json.Marshal(cluster.ResultsToWire(resp.Results))
	return resp.Total, b, err
}

// agree compares one /v1 page with a direct engine answer to the same
// request, byte for byte.
func agree(query string, gotTotal int, gotResults []byte, resp *search.Response) error {
	total, want, err := expected(resp)
	if err != nil {
		return err
	}
	if gotTotal != total || !bytes.Equal(gotResults, want) {
		return fmt.Errorf("query %q: /v1 answered total=%d %.300s; the engine total=%d %.300s",
			query, gotTotal, gotResults, total, want)
	}
	return nil
}

// checkPages re-runs sampled queries directly on the engine and
// compares. Only valid while the engine state has not changed since the
// pages were served. It returns how many disagreed; the pages were
// counted as requests when they were served.
func checkPages(e *search.Engine, ss []sample) (bad int, firstErr error) {
	for _, s := range ss {
		resp, err := e.Search(context.Background(), search.Request{Query: s.query, K: pageK})
		if err == nil {
			err = agree(s.query, s.total, s.results, resp)
		}
		if err != nil {
			bad++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return bad, firstErr
}

// probe sends the fixed probe set through the front — one query per
// request on a single node, one batch through a coordinator — and
// compares every page with a direct engine search. It returns the
// requests sent and those that failed or disagreed.
func probe(st *stack, c *client, probes []string) (attempted, failed int, firstErr error) {
	note := func(err error) {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	var ops []op
	if st.coord != nil {
		ops = []op{{kind: opBatch, queries: probes[:min(len(probes), batchSize)]}}
	} else {
		for _, q := range probes {
			ops = append(ops, op{kind: opSearch, queries: []string{q}})
		}
	}
	for _, o := range ops {
		attempted++
		rep, err := c.do(o, -1)
		if err != nil {
			note(err)
			continue
		}
		for i, p := range rep.pages {
			resp, err := st.engine.Search(context.Background(), search.Request{Query: o.queries[i], K: pageK})
			if err == nil {
				err = agree(p.Query, p.Total, p.Results, resp)
			}
			note(err)
		}
	}
	return attempted, failed, firstErr
}

// instanceCount reads the live instance count from /healthz.
func instanceCount(c *client) (int, error) {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h struct {
		Instances int `json:"instances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	return h.Instances, nil
}

// serverStats reads the front server's serving counters.
type serverStats struct {
	Queries     int64 `json:"queries"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	DedupShared int64 `json:"dedup_shared"`
}

func readStats(c *client) (serverStats, error) {
	var s serverStats
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("stats: %w", err)
	}
	return s, nil
}
