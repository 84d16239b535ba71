// Command perfbench is the serving benchmark: it builds a synth corpus
// through the constructors cmd/qunitsd uses, serves it on loopback with
// internal/server, drives one workload closed-loop with two clients,
// checks the answers against direct engine searches, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// replay. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload tail-cold --seed 1 --seconds 10 --trace 0
//
// The exit code is non-zero when any request fails or any answer
// disagrees with the engine. README.md explains the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"qunits/internal/server"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: head-hot, tail-cold, churn-rw or batch-cluster")
		seed    = flag.Int64("seed", 1, "workload seed: draws the op streams")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	)
	flag.Parse()
	spec, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("want -workload head-hot|tail-cold|churn-rw|batch-cluster, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	res, err := run(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("%s: %v", spec.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		logf("%s: %v", spec.name, err)
		os.Exit(1)
	}
	if !res.Correct {
		logf("%s: %d of %d requests failed or disagreed with the engine; first: %v",
			spec.name, res.Failed, res.Attempted, res.firstErr)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	firstErr  error
	extra     map[string]metric // printed in the table only
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// print writes a table of every metric, then the JSON result line.
func (r *result) print(f *os.File) error {
	all := map[string]metric{}
	for k, v := range r.Metrics {
		all[k] = v
	}
	for k, v := range r.extra {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "%-30s %16.6f %s\n", k, all[k].Value, all[k].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}

// run sets up, drives and checks one workload.
func run(spec workload, seed int64, d time.Duration, traced bool) (*result, error) {
	st, times, err := setUp(spec.clustered)
	if err != nil {
		return nil, err
	}
	logf("%s: set-up took %v (generate %v, derive %v, build %v)",
		spec.name, times.total.Round(time.Millisecond), times.generate.Round(time.Millisecond),
		times.derive.Round(time.Millisecond), times.build.Round(time.Millisecond))
	defer st.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6

	mark := time.Now()
	in := makeInputs(spec, st.universe, st.engine)
	st.universe = nil
	logf("%s: inputs generated in %v (%d distinct queries)", spec.name, time.Since(mark).Round(time.Millisecond), in.reads.Queries())
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(st.base)
		defer cs[i].closeIdle()
	}
	measured := make([]*stream, clients)
	warm := make([]*stream, clients)
	for i := range cs {
		measured[i] = newStream(in, seed, 0, i)
		warm[i] = newStream(in, seed, 1, i)
	}

	res := &result{Metrics: map[string]metric{}, extra: map[string]metric{}}
	all := &tally{}
	startCount := 0
	if spec.writes {
		n, err := instanceCount(cs[0])
		if err != nil {
			return nil, err
		}
		startCount = n
	}
	all.add(probe(st, cs[0], in.probes))

	mark = time.Now()
	all.merge(warmUp(cs, warm, spec.limit))
	for i := range cs {
		drain(st, cs[i], warm[i], all)
	}
	logf("%s: warmed up in %v", spec.name, time.Since(mark).Round(time.Millisecond))

	if traced {
		if err := traceRun(spec, st, cs, measured, in, seed, d, all, res); err != nil {
			return nil, err
		}
	} else {
		t := drive(cs, measured, d, spec.limit, !spec.writes)
		all.merge(t)
		endToEnd(spec, t, res)
		bad, err := checkPages(st.engine, t.samples)
		all.add(0, bad, err)
	}
	for i := range cs {
		drain(st, cs[i], measured[i], all)
	}
	all.add(probe(st, cs[0], in.probes))
	if spec.writes {
		n, err := instanceCount(cs[0])
		all.attempted++
		if err == nil && n != startCount {
			err = fmt.Errorf("churn-rw ended with %d instances, started with %d", n, startCount)
		}
		if err != nil {
			all.fail(err)
		}
	}

	if traced {
		res.set("synth.generate_s", times.generate.Seconds(), "s")
		res.set("derive.derive_s", times.derive.Seconds(), "s")
		res.set("search.build_s", times.build.Seconds(), "s")
	} else {
		res.set("setup_s", times.total.Seconds(), "s")
		res.set("heap_mb", heapMB, "MB")
	}
	res.Attempted, res.Failed, res.firstErr = all.attempted, all.failed, all.firstErr
	res.Correct = all.failed == 0
	res.extra["error_rate"] = metric{ratio(float64(all.failed), float64(all.attempted)), "fraction"}
	return res, nil
}

// endToEnd turns the measured pass into the end-to-end metrics.
func endToEnd(spec workload, t *tally, res *result) {
	secs := t.elapsed.Seconds()
	res.set("throughput_qps", float64(t.items)/secs, "items/s")
	res.set("goodput_qps", float64(t.good)/secs, "items/s")
	res.set("latency_p50_ms", quantile(t.lat, 0.50), "ms")
	res.set("latency_p98_ms", quantile(t.lat, 0.98), "ms")
	res.extra["requests"] = metric{float64(len(t.lat)), "count"}
	res.extra["goodput_limit_ms"] = metric{ms(spec.limit), "ms"}
	for k, n := range t.kindN {
		if n > 0 {
			res.extra["requests."+opNames[k]] = metric{float64(n), "count"}
			res.extra["latency_mean_ms."+opNames[k]] = metric{t.kindMS[k] / float64(n), "ms"}
		}
	}
}

// traceRun is the -trace 1 pass, splitting the measured time three
// ways: an untraced closed-loop pass like the end-to-end run, for the
// server's and the runtime's counters; an untraced single-client pass,
// the baseline of the tracing overhead; and the traced replay of the
// first client's measured stream. On churn-rw the closed-loop pass is
// also sent again, writes left out, to a fresh server (noWriteHitRatio).
// Each pass draws its own stream, so no
// pass finds its queries cached by an earlier one. Spans are written to
// .bench_build when it ends.
func traceRun(spec workload, st *stack, cs []*client, measured []*stream, in *inputs, seed int64, d time.Duration, all *tally, res *result) error {
	counted := make([]*stream, len(cs))
	for i := range counted {
		counted[i] = newStream(in, seed, 3, i)
	}
	before, err := readStats(cs[0])
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	t := drive(cs, counted, d*4/10, spec.limit, false)
	rt1 := readRuntime()
	after, err := readStats(cs[0])
	if err != nil {
		return err
	}
	all.merge(t)
	drawn := make([]int, len(cs))
	for i := range cs {
		drawn[i] = counted[i].drawn
		drain(st, cs[i], counted[i], all)
	}
	ops := float64(t.attempted)
	res.set("runtime.allocs_per_op", (rt1.mallocs-rt0.mallocs)/ops, "count")
	res.set("runtime.alloc_bytes_per_op", (rt1.bytes-rt0.bytes)/ops, "bytes")
	res.set("runtime.gc_cpu_fraction", ratio(rt1.gcCPU-rt0.gcCPU, rt1.cpu-rt0.cpu), "ratio")
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	res.set("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("server.dedup_per_1k", 1000*ratio(float64(after.DedupShared-before.DedupShared), float64(after.Queries-before.Queries)), "count")
	res.set("server.resp_bytes", ratio(float64(t.bytes), ops), "bytes")
	nowrite := res.Metrics["server.cache_hit_ratio"].Value
	if spec.writes {
		if nowrite, err = noWriteHitRatio(st, in, seed, drawn, spec.limit, all); err != nil {
			return err
		}
	}
	res.set("workload.nowrite_hit_ratio", nowrite, "ratio")

	single := newStream(in, seed, 2, 0)
	base := drive(cs[:1], []*stream{single}, d*2/10, spec.limit, false)
	all.merge(base)
	drain(st, cs[0], single, all)

	tr, ls := traceReplay(st, cs[0], measured[0], d*4/10, all)

	res.set("client.transport_us", quantile(ls.transport, 0.5), "us")
	res.set("server.serve_hit_us", quantile(ls.serveHit, 0.5), "us")
	res.set("server.serve_miss_us", quantile(ls.serveMiss, 0.5), "us")
	res.set("server.miss_self_us", quantile(ls.missSelf, 0.5), "us")
	res.set("search.search_p50_us", quantile(ls.search, 0.5), "us")
	res.set("search.search_p99_us", quantile(ls.search, 0.99), "us")
	res.set("search.candidates_per_result", ratio(float64(ls.candidates), float64(ls.results)), "ratio")
	res.set("search.batch_item_us", quantile(ls.batchItem, 0.5), "us")
	res.set("search.feedback_p50_us", quantile(ls.feedback, 0.5), "us")
	res.set("search.feedback_p99_us", quantile(ls.feedback, 0.99), "us")
	res.set("search.add_p50_us", quantile(ls.add, 0.5), "us")
	res.set("search.add_p99_us", quantile(ls.add, 0.99), "us")
	res.set("search.remove_p50_us", quantile(ls.remove, 0.5), "us")
	res.set("search.remove_p99_us", quantile(ls.remove, 0.99), "us")
	res.set("segment.segment_us", quantile(ls.segment, 0.5), "us")
	res.set("segment.entities_per_query", ratio(float64(ls.entities), float64(ls.segments)), "count")
	res.set("cluster.batch_us", quantile(ls.clusterBatch, 0.5), "us")
	res.set("cluster.partition_max_us", quantile(ls.partitionMax, 0.5), "us")
	res.set("cluster.overhead_us", quantile(ls.overhead, 0.5), "us")
	untraced := quantile(base.lat, 0.5)
	res.set("trace.overhead_pct", 100*ratio(quantile(ls.request, 0.5)-untraced, untraced), "%")
	res.extra["trace.spans"] = metric{float64(len(tr.spans)), "count"}

	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-seed%d.jsonl", spec.name, seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	logf("%s: %d spans written to %s", spec.name, len(tr.spans), path)
	return nil
}

// noWriteHitRatio is the result-cache hit ratio the same log reaches
// without writes: a fresh server over the same engine, starting from an
// empty cache as the write-purged one keeps starting over, gets the
// counted pass's streams again, each client drawing as many ops as its
// counterpart did, and every write is left out. Read-only workloads
// have no writes to leave out, so their reference is the counted pass
// itself.
func noWriteHitRatio(st *stack, in *inputs, seed int64, drawn []int, limit time.Duration, all *tally) (float64, error) {
	l, err := listen(server.New(st.engine, server.Config{}))
	if err != nil {
		return 0, err
	}
	defer l.close()
	parts := make([]tally, len(drawn))
	var wg sync.WaitGroup
	for i, n := range drawn {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			c := newClient(l.url)
			defer c.closeIdle()
			s := newStream(in, seed, 3, i)
			for s.drawn < n {
				if o := s.next(); o.kind == opSearch {
					exec(c, o, limit, false, &parts[i])
				}
			}
		}(i, n)
	}
	wg.Wait()
	for i := range parts {
		all.merge(&parts[i])
	}
	c := newClient(l.url)
	defer c.closeIdle()
	stats, err := readStats(c)
	if err != nil {
		return 0, err
	}
	return ratio(float64(stats.CacheHits), float64(stats.CacheHits+stats.CacheMisses)), nil
}

// runtimeCounters are the process-wide allocation and CPU counters; the
// clients and servers share the process, so they cover both sides.
type runtimeCounters struct{ mallocs, bytes, gcCPU, cpu float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{v(0), v(1), v(2), v(3)}
}
