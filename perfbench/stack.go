package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"qunits/internal/cluster"
	"qunits/internal/derive"
	"qunits/internal/imdb"
	"qunits/internal/ir"
	"qunits/internal/search"
	"qunits/internal/server"
	"qunits/internal/synth"
)

// corpusInstances sizes the synth corpus every workload serves. The
// corpus seed is fixed: the workload seed varies the traffic, never the
// data, so set-up and memory compare across seeds.
const (
	corpusInstances = 100000
	corpusSeed      = 1
)

// clusterShards is the shard count of the batch-cluster engine. Partition
// mode needs an explicit count, identical on every partition; 4 splits
// evenly over the two partitions.
const clusterShards = 4

// setupTimes splits one set-up into its layers. total runs from the
// start of corpus generation to a listener that accepts connections.
type setupTimes struct {
	generate, derive, build, total time.Duration
}

// stack is one served corpus: the engine, the HTTP front the clients
// talk to, and, for batch-cluster, the coordinator and partition shard
// sets behind it.
type stack struct {
	universe  *imdb.Universe
	engine    *search.Engine
	base      string // URL of the front listener
	coord     *cluster.Coordinator
	sets      []ir.ShardSet
	front     *traceHandler
	listeners []*listener
}

// setUp builds the corpus through the constructors cmd/qunitsd uses and
// serves it on loopback: a single-node server, or a coordinator over
// two partition servers that share the one engine.
func setUp(clustered bool) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()

	cfg := synth.ForInstances(corpusInstances)
	cfg.Seed = corpusSeed
	u, err := synth.Generate(cfg)
	if err != nil {
		return nil, t, fmt.Errorf("generating corpus: %w", err)
	}
	t.generate = time.Since(start)

	mark := time.Now()
	cat, err := derive.Expert{}.Derive(u.DB)
	if err != nil {
		return nil, t, fmt.Errorf("deriving catalog: %w", err)
	}
	t.derive = time.Since(mark)

	mark = time.Now()
	opts := search.Options{Synonyms: imdb.AttributeSynonyms()}
	if clustered {
		opts.Shards = clusterShards
	}
	engine, err := search.NewEngine(cat, opts)
	if err != nil {
		return nil, t, fmt.Errorf("building engine: %w", err)
	}
	t.build = time.Since(mark)

	st := &stack{universe: u, engine: engine}
	if err := st.serve(clustered); err != nil {
		st.close()
		return nil, t, err
	}
	t.total = time.Since(start)
	return st, t, nil
}

// serve starts the listeners. The result cache and batch limits are the
// qunitsd defaults (1024 entries, batches of 32).
func (st *stack) serve(clustered bool) error {
	var cfg server.Config
	if !clustered {
		st.front = &traceHandler{next: server.New(st.engine, cfg)}
		l, err := listen(st.front)
		if err != nil {
			return err
		}
		st.listeners = append(st.listeners, l)
		st.base = l.url
		return nil
	}
	parts := make([]cluster.Partition, 2)
	for i := range parts {
		set := ir.ShardSet{Index: i, Count: len(parts)}
		l, err := listen(server.NewPartitionServer(st.engine, cfg, server.PartitionConfig{Set: set}))
		if err != nil {
			return err
		}
		st.listeners = append(st.listeners, l)
		st.sets = append(st.sets, set)
		parts[i] = cluster.NewClient(l.url, i)
	}
	st.coord = cluster.NewCoordinator(parts)
	st.front = &traceHandler{next: server.NewCoordinatorServer(st.coord, cfg)}
	l, err := listen(st.front)
	if err != nil {
		return err
	}
	st.listeners = append(st.listeners, l)
	st.base = l.url
	return nil
}

// close stops every listener and waits for its serve loop to return.
func (st *stack) close() {
	for _, l := range st.listeners {
		l.close()
	}
	st.listeners = nil
}

// listener is one loopback HTTP server.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("listener %s: %v", l.url, err)
		}
	}()
	return l, nil
}

func (l *listener) close() {
	_ = l.srv.Close() // closes the listener and every connection; Serve returns
	<-l.done
}
