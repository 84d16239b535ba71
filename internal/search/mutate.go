package search

import (
	"fmt"

	"qunits/internal/core"
	"qunits/internal/ir"
)

// InstanceExistsError reports an AddInstance whose instance ID is
// already indexed.
type InstanceExistsError struct {
	// ID is the conflicting instance ID.
	ID string
}

// Error implements error.
func (e *InstanceExistsError) Error() string {
	return fmt.Sprintf("search: instance %q already indexed", e.ID)
}

// InstanceNotFoundError reports an operation addressing an instance ID
// the engine does not hold.
type InstanceNotFoundError struct {
	// ID is the missing instance ID.
	ID string
}

// Error implements error.
func (e *InstanceNotFoundError) Error() string {
	return fmt.Sprintf("search: no instance %q", e.ID)
}

// InvalidAnchorError reports an AddAnchorInstance whose anchor value
// does not fit the definition's arity: a parameterized definition given
// no anchor, or a parameterless one given one. It is a caller mistake
// (a 4xx on the HTTP surface), unlike instantiation failures, which are
// engine-side faults.
type InvalidAnchorError struct {
	// Definition is the definition the call addressed.
	Definition string
	// Reason says which way the arity was violated.
	Reason string
}

// Error implements error.
func (e *InvalidAnchorError) Error() string {
	return fmt.Sprintf("search: definition %q %s", e.Definition, e.Reason)
}

// AddInstance indexes one qunit instance into the live engine: the
// instance is analyzed with the engine's field weights and merged into
// the sharded index, and is retrievable by the next Search — no rebuild,
// no restart. The update is serialized against concurrent searches by
// the engine lock; collection statistics (document count, frequencies,
// total length) shift for every document, which is why callers holding
// derived state (e.g. a result cache) must invalidate it.
//
// The instance's ID must be new; adding an already-indexed ID returns
// *InstanceExistsError.
func (e *Engine) AddInstance(inst *core.Instance) error {
	if inst == nil || inst.Def == nil {
		return fmt.Errorf("search: AddInstance of nil instance or instance without definition")
	}
	// Analysis is pure and CPU-bound; do it before taking the lock so
	// concurrent searches stall only for the index merge itself.
	doc := ir.AnalyzeFields(indexFields(inst, e.opts)...)
	id := inst.ID()
	// indexMu first (the index-structure writers' lock — see
	// compact.go), then the engine lock: a compaction pass in flight
	// must finish and swap before this document lands, or the add would
	// be lost with the old index.
	e.indexMu.Lock()
	defer e.indexMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.instances[id]; dup {
		return &InstanceExistsError{ID: id}
	}
	// Re-sync the utility under the lock: the instance was instantiated
	// outside it, and a feedback update that landed in between mirrored
	// the definition's new utility onto every *indexed* instance — this
	// one was not indexed yet and would stay stale forever otherwise
	// (instance utilities always mirror their definition's).
	inst.Utility = inst.Def.Utility
	// Log before applying: validation is done and the apply below cannot
	// fail, so an appended record always corresponds to a state change —
	// and an append failure aborts with the engine untouched.
	if e.mlog != nil {
		if err := e.mlog.AppendAdd(inst.Def.Name, inst.Params); err != nil {
			return fmt.Errorf("search: logging add: %w", err)
		}
	}
	if _, err := e.index.AddAnalyzed(id, doc); err != nil {
		return err
	}
	e.instances[id] = inst
	e.appendDoc(inst)
	e.noteUtility(inst.Utility)
	e.indexLabel(inst)
	return nil
}

// RemoveInstance deletes an indexed instance by ID: its postings are
// unwound from the index and the collection statistics adjusted, so the
// next Search neither returns it nor counts it. Removing an unknown ID
// returns *InstanceNotFoundError. Serialized against concurrent searches
// by the engine lock.
//
// The removed document's index slot is tombstoned, not reclaimed; when
// an auto-compaction policy is installed (Options.CompactRatio /
// SetAutoCompact) and the removal pushes the tombstone ratio over the
// threshold, the engine compacts before returning — searches stay
// available throughout (see Compact).
func (e *Engine) RemoveInstance(id string) error {
	if err := e.removeInstance(id); err != nil {
		return err
	}
	e.maybeAutoCompact()
	return nil
}

// removeInstance is RemoveInstance's locked body; the auto-compaction
// check runs after every lock is released.
func (e *Engine) removeInstance(id string) error {
	e.indexMu.Lock()
	defer e.indexMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.instances[id]; !ok {
		return &InstanceNotFoundError{ID: id}
	}
	if e.mlog != nil {
		if err := e.mlog.AppendRemove(id); err != nil {
			return fmt.Errorf("search: logging remove: %w", err)
		}
	}
	g, _ := e.index.ID(id)
	if err := e.index.Remove(id); err != nil {
		return err
	}
	e.byDoc[g] = nil
	e.dropLabel(e.instances[id])
	delete(e.instances, id)
	return nil
}

// AddAnchorInstance instantiates the named catalog definition for one
// anchor value and indexes the result — the one-call form of "a new
// entity appeared; derive and serve its qunit". For a parameterless
// definition anchor must be empty. The anchor need not exist in the
// database: the derived qunit is then empty-bodied but still findable
// by its label, which is the paper's "empty qunit" case ("the caller
// decides whether an empty qunit is meaningful").
//
// It returns the indexed instance, *UnknownDefinitionError for an
// unknown definition name, or *InstanceExistsError when the anchor's
// instance is already indexed.
func (e *Engine) AddAnchorInstance(defName, anchor string) (*core.Instance, error) {
	d := e.cat.Definition(defName)
	if d == nil {
		return nil, &UnknownDefinitionError{Name: defName}
	}
	params := map[string]string{}
	if param, _, ok := d.AnchorParam(); ok {
		if anchor == "" {
			return nil, &InvalidAnchorError{Definition: defName, Reason: "needs an anchor value"}
		}
		params[param] = anchor
	} else if anchor != "" {
		return nil, &InvalidAnchorError{Definition: defName, Reason: "takes no anchor"}
	}
	// Instantiate reads the immutable database plus the definition's
	// utility; hold the read lock so the utility read cannot race a
	// concurrent ApplyFeedback.
	e.mu.RLock()
	inst, err := e.cat.Instantiate(d, params)
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if err := e.AddInstance(inst); err != nil {
		return nil, err
	}
	return inst, nil
}
