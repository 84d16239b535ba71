package search

import (
	"bytes"
	"fmt"

	"qunits/internal/core"
	"qunits/internal/ir"
	"qunits/internal/relational"
	"qunits/internal/segment"
	"qunits/internal/sqlview"
)

// EngineState is the serializable state of an engine — everything a
// fresh process needs to answer searches bit-for-bit like the engine it
// was dumped from, given the same database. internal/snapshot encodes
// it to the on-disk format; DumpState and RestoreEngine convert between
// it and a live Engine.
//
// The database itself is NOT part of the state: the segmentation
// dictionary is rebuilt from it on restore, and catalog definitions are
// revalidated against its schema. Restoring against a different
// database is an error the snapshot layer detects via its fingerprint.
type EngineState struct {
	// Options are the engine options with defaults applied. The Scorer
	// field is an interface; the snapshot layer serializes the stock
	// scorers (BM25, TF-IDF) by their parameters.
	Options Options
	// Shards is the actual shard count of the index (Options.Shards may
	// be 0 = GOMAXPROCS, which would differ across machines).
	Shards int
	// CatalogJSON is the catalog in the core codec's JSON wire format,
	// carrying every definition with its learned utility.
	CatalogJSON []byte
	// Docs are the indexed instances in global index-insertion order —
	// the order that makes the rebuilt posting lists and collection
	// statistics identical to the dumped engine's.
	Docs []DocState
	// IndexTotalLen is the index's running total weighted document
	// length. After removals it is an incremental float sum that a
	// re-add sequence would not reproduce exactly, so it is restored
	// verbatim.
	IndexTotalLen float64

	// Slots is the dumped index's global slot count, tombstones of
	// removed documents included. Zero (with Postings nil) marks a state
	// from before slots were recorded — snapshot format v1 — which is
	// restored by compacting live documents into fresh dense slots.
	Slots int
	// Postings holds, per shard, the compressed posting lists exactly as
	// the dumped index stored them (tombstoned entries and stale
	// block-max metadata included). When present, restore reproduces the
	// dumped index slot-for-slot and installs these lists instead of
	// re-deriving postings from Docs.
	Postings [][]ir.TermPostings

	// TrustedPostings marks Postings as already integrity-checked by the
	// producer (the snapshot layer's checksums) and possibly aliasing a
	// memory-mapped file: restore installs them with shape-only
	// validation instead of the O(corpus) per-posting decode, which is
	// what makes a mapped load O(metadata).
	TrustedPostings bool
	// PostingsOwner, when non-nil, owns the bytes Postings alias (a
	// snapshot mapping). Restore anchors it to the index so the mapping
	// stays mapped while any search can reach it; it is released by GC
	// once every index epoch referencing it is gone.
	PostingsOwner any
}

// DocState is one indexed qunit instance in dump form: the materialized
// presentation, its provenance, its utility at dump time, and the
// analyzed terms it was indexed under.
type DocState struct {
	// DefName names the producing definition in the catalog.
	DefName string
	// Params are the parameter bindings that derived the instance.
	Params map[string]string
	// XML and Text are the rendered presentation.
	XML, Text string
	// ContextText is the ranking-only context text.
	ContextText string
	// Tuples is the provenance (base tuples that contributed).
	Tuples []relational.TupleRef
	// Utility is the instance utility at dump time.
	Utility float64
	// Terms is the analyzed (tokenized, weighted) form the instance was
	// indexed under.
	Terms ir.DocTerms
	// Slot is the document's global slot id in the dumped index; slots
	// missing from the Docs sequence are tombstones of removed
	// documents. Unused (zero) in states without slot information.
	Slot int
}

// DumpState captures the engine's full state under the read lock: the
// catalog (with learned utilities) as codec JSON, every live instance
// in index order, and the exact collection statistics. The returned
// state shares no mutable data with the engine and can be serialized
// while the engine keeps serving.
func (e *Engine) DumpState() (*EngineState, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.dumpStateLocked()
}

// DumpStateWith dumps the state with every mutation path quiesced —
// indexMu AND the read lock held, so adds, removals, feedback, and
// compaction are all excluded — and runs capture inside that critical
// section. The cluster layer uses it to record the mutation-log
// position atomically with the state: a concurrent Compact appends its
// log record under indexMu without touching mu, so a read lock alone
// could capture a sequence number from mid-compaction.
func (e *Engine) DumpStateWith(capture func()) (*EngineState, error) {
	e.indexMu.Lock()
	defer e.indexMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	capture()
	return e.dumpStateLocked()
}

// dumpStateLocked is the body of DumpState; callers hold e.mu (read or
// write).
func (e *Engine) dumpStateLocked() (*EngineState, error) {
	var cat bytes.Buffer
	if err := e.cat.Encode(&cat); err != nil {
		return nil, fmt.Errorf("search: dumping catalog: %w", err)
	}
	st := &EngineState{
		Options:       e.opts,
		Shards:        e.index.NumShards(),
		CatalogJSON:   cat.Bytes(),
		Docs:          make([]DocState, 0, len(e.instances)),
		IndexTotalLen: e.index.TotalLen(),
	}
	for id := 0; id < e.index.Slots(); id++ {
		name := e.index.Name(id)
		if name == "" {
			continue // tombstone of a removed instance
		}
		inst := e.instances[name]
		if inst == nil {
			return nil, fmt.Errorf("search: index document %q has no instance", name)
		}
		st.Docs = append(st.Docs, DocState{
			DefName:     inst.Def.Name,
			Params:      inst.Params,
			XML:         inst.Rendered.XML,
			Text:        inst.Rendered.Text,
			ContextText: inst.ContextText,
			Tuples:      inst.Tuples,
			Utility:     inst.Utility,
			Terms:       e.index.Terms(id),
			Slot:        id,
		})
	}
	st.Slots = e.index.Slots()
	st.Postings = make([][]ir.TermPostings, e.index.NumShards())
	for i := range st.Postings {
		st.Postings[i] = e.index.ExportPostings(i)
	}
	return st, nil
}

// RestoreEngine rebuilds a serving-ready engine from a dumped state and
// the database it was dumped over: the catalog is decoded and
// revalidated against the schema, the segmentation dictionary is
// rebuilt, and the index is reconstructed by replaying the documents in
// their original insertion order — which reproduces posting lists,
// shard layout, and collection statistics exactly, so the restored
// engine's Search results (scores included) are bitwise identical to
// the dumped engine's.
func RestoreEngine(db *relational.Database, st *EngineState) (*Engine, error) {
	cat, err := core.DecodeCatalog(db, bytes.NewReader(st.CatalogJSON))
	if err != nil {
		return nil, fmt.Errorf("search: restoring catalog: %w", err)
	}
	opts := withDefaults(st.Options)
	if st.Shards < 1 {
		return nil, fmt.Errorf("search: restoring engine: invalid shard count %d", st.Shards)
	}
	opts.Shards = st.Shards
	dict := segment.BuildDictionary(db, segment.Options{AttributeSynonyms: opts.Synonyms})
	e := &Engine{
		cat:       cat,
		dict:      dict,
		seg:       segment.NewSegmenter(dict),
		index:     ir.NewShardedIndex(st.Shards),
		instances: make(map[string]*core.Instance, len(st.Docs)),
		opts:      opts,
	}
	// States carrying slot and postings information (format v2) are
	// restored slot-exactly: tombstones of removed documents are
	// re-created so shard assignment, local ids, and the persisted
	// compressed posting lists all line up with the dumped index.
	// Older states (v1) compact live documents into fresh dense slots
	// and re-derive postings by replay — a layout that can differ from
	// the dumped one, but scores identically (collection statistics are
	// shared across shards and ranking is layout-independent).
	slotExact := st.Postings != nil
	if slotExact {
		if len(st.Postings) != st.Shards {
			return nil, fmt.Errorf("search: restoring engine: %d postings shards for %d index shards", len(st.Postings), st.Shards)
		}
		if len(st.Docs) > 0 && st.Slots <= st.Docs[len(st.Docs)-1].Slot {
			return nil, fmt.Errorf("search: restoring engine: slot count %d does not cover doc slots", st.Slots)
		}
	}
	nextSlot := 0
	for i, d := range st.Docs {
		def := cat.Definition(d.DefName)
		if def == nil {
			return nil, fmt.Errorf("search: restoring doc %d: catalog has no definition %q", i, d.DefName)
		}
		inst := &core.Instance{
			Def:         def,
			Params:      d.Params,
			Rendered:    sqlview.Rendered{XML: d.XML, Text: d.Text},
			Tuples:      d.Tuples,
			Utility:     d.Utility,
			ContextText: d.ContextText,
		}
		id := inst.ID()
		if slotExact {
			if d.Slot < nextSlot {
				return nil, fmt.Errorf("search: restoring doc %d: slot %d out of order", i, d.Slot)
			}
			for ; nextSlot < d.Slot; nextSlot++ {
				e.index.AddTombstone()
				e.appendDoc(nil)
			}
			nextSlot++
			if _, err := e.index.AddAnalyzedDocOnly(id, d.Terms); err != nil {
				return nil, fmt.Errorf("search: restoring doc %d: %w", i, err)
			}
		} else if _, err := e.index.AddAnalyzed(id, d.Terms); err != nil {
			return nil, fmt.Errorf("search: restoring doc %d: %w", i, err)
		}
		e.instances[id] = inst
		e.appendDoc(inst)
		e.noteUtility(inst.Utility)
		e.indexLabel(inst)
	}
	if slotExact {
		for ; nextSlot < st.Slots; nextSlot++ {
			e.index.AddTombstone()
			e.appendDoc(nil)
		}
		for i, lists := range st.Postings {
			var err error
			if st.TrustedPostings {
				err = e.index.ImportPostingsTrusted(i, lists)
			} else {
				err = e.index.ImportPostings(i, lists)
			}
			if err != nil {
				return nil, fmt.Errorf("search: restoring shard %d postings: %w", i, err)
			}
		}
		if st.PostingsOwner != nil {
			e.index.Retain(st.PostingsOwner)
		}
	}
	// A zero-instance state is valid: RemoveInstance can empty a live
	// engine, and its snapshot must round-trip (searches simply return
	// nothing). Only NewEngine insists on a non-empty catalog yield.
	e.index.ForceTotalLen(st.IndexTotalLen)
	e.SetAutoCompact(opts.CompactRatio)
	return e, nil
}
