package names

import (
	"time"

	"secext/internal/lattice"
	"secext/internal/principal"
	"secext/internal/telemetry"
)

// Write-combining epoch publisher.
//
// PR 5 made every read lock-free by bundling the whole policy into one
// immutable Epoch, but it priced every mutation at a full successor-
// epoch publication — freeze, clone, atomic store — serialized under
// writeMu. Under sustained churn ("millions of users with constant
// group/ACL churn") that write tax dominates. This file splits a
// mutation's *staging* from its *publication* so concurrent mutations
// coalesce into one successor epoch:
//
//   - stage: under writeMu, a mutator applies its change to a single
//     shared staged epoch (created lazily from the published one at
//     version+1) and joins the pending batch. Staging is cheap — the
//     expensive freeze work happened before the stage (incremental
//     freezes in the lattice/registry, spine clone for the tree).
//   - flush: the first waiter to reach flush() publishes the staged
//     epoch — one atomic store covering every staged mutation — and
//     wakes the batch. Waiters wait OUTSIDE writeMu and outside their
//     shard's own writer mutex, which is what lets mutators pipeline:
//     while one waiter flushes, other mutators stage into the next
//     batch.
//
// Ordering contract (the part batching must never bend): batching may
// delay *publication*, never *ordering*. A mutation's returned version
// is its batch epoch's version, and no reader can observe an epoch >=
// that version without the mutation applied — the staged epoch
// accumulates every member of the batch before the single store, and
// versions advance only through flushes. Every mutator still blocks
// until its batch is published before returning to its caller, so the
// revocation barrier holds: when a Registry.Apply carrying a
// RemoveMember returns, the revocation is enforced for every future
// decision.

// Shard bits identifying which policy shards a pending batch touches;
// the flush bumps one typed transition counter per touched shard.
const (
	shardNames uint8 = 1 << iota
	shardLattice
	shardRegistry
	shardStack
)

// pendingBatch is one in-flight group of staged mutations awaiting
// publication. done is closed by the flush that publishes the batch;
// version is pre-assigned at first stage (published version + 1), so
// every member knows its landing version before publication.
type pendingBatch struct {
	done    chan struct{}
	version uint64
	size    int
	shards  uint8
	start   time.Time

	// Replication stamps for the journal record: set by ApplyReplicated
	// (wire.go) so the flush journals the publication with a distinct
	// kind and the primary version it mirrors. Zero values mean a local
	// publication.
	replicaKind    string
	replicaVersion uint64
}

// FrozenShard is the delta-aware freeze contract shared by the policy
// shards that publish frozen state into the epoch: a frozen view
// reports its own version and the version it was incrementally derived
// from (0 = rebuilt from scratch). The batched publisher does not
// interpret DeltaBase — the shards patch their own state — but the
// shared interface pins the contract both freezers implement, and
// tests assert delta chains stay anchored to published versions.
type FrozenShard interface {
	Version() uint64
	DeltaBase() uint64
}

var (
	_ FrozenShard = (*lattice.Frozen)(nil)
	_ FrozenShard = (*principal.Frozen)(nil)
)

// currentLocked returns the epoch mutations must derive from: the
// staged successor when a batch is open (its mutations are committed-
// but-unpublished; deriving from the published epoch would lose them),
// else the published epoch. Caller holds writeMu.
func (s *Server) currentLocked() *Epoch {
	if s.staged != nil {
		return s.staged
	}
	return s.epoch.Load()
}

// stageLocked joins the open batch (opening one if needed), applies the
// mutation to the staged epoch, and returns the batch the mutator must
// wait on. Caller holds writeMu and calls the wait function only after
// releasing it (and any shard mutex it holds).
func (s *Server) stageLocked(shard uint8, apply func(*Epoch)) *pendingBatch {
	if s.staged == nil {
		cur := *s.epoch.Load()
		cur.version++
		// The staged epoch must never serve compiled answers: its tree
		// diverges from the published index as mutations accumulate.
		// The flush compiles a fresh view right before the store. The
		// footprint cell is per-publication state for the same reason —
		// the flush installs a fresh one (and recomputes owned) before
		// the store.
		cur.compiled = nil
		cur.fp = nil
		cur.owned = 0
		s.staged = &cur
		s.batch = &pendingBatch{
			done:    make(chan struct{}),
			version: cur.version,
			start:   time.Now(),
		}
	}
	apply(s.staged)
	s.batch.size++
	s.batch.shards |= shard
	s.batchedMutations.Add(1)
	return s.batch
}

// waiter returns the function a mutator calls after releasing every
// lock: it makes sure the batch is published (first caller in wins;
// the rest find the batch already flushed) and returns the epoch
// version the mutation landed in.
func (s *Server) waiter(b *pendingBatch) func() uint64 {
	return func() uint64 {
		s.flush()
		<-b.done
		return b.version
	}
}

// flush publishes the staged epoch, if any: one atomic store makes
// every staged mutation visible at once, the typed transition counters
// record which shards moved, and the batch's waiters wake. Callers
// hold no lock. A flush that finds no open batch (someone else already
// published it, or a new batch opened after ours closed) is a no-op —
// an early flush of a younger batch is harmless, it only shrinks that
// batch.
func (s *Server) flush() {
	s.writeMu.Lock()
	st, b := s.staged, s.batch
	if st == nil {
		s.writeMu.Unlock()
		return
	}
	// Compile the successor's read-side structures while s.epoch still
	// holds the parent (compileEpoch builds incrementally from the
	// parent's compiled view). This is the one deliberate cost the
	// write path pays for the read path: the freeze-cost split is
	// recorded below, outside the mutex.
	var cs compileStats
	if !s.compiledOff && st.reg != nil {
		st.compiled, cs = s.compileEpoch(st)
	}
	prev := s.epoch.Load()
	// Footprint accounting: count the nodes this publication allocated
	// (everything not pointer-shared with the parent tree). The walk is
	// pruned at shared subtrees, so a typical publication pays O(spine).
	st.owned = countOwned(prev.root, st.root)
	st.fp = &fpCell{}
	s.staged, s.batch = nil, nil
	s.epoch.Store(st)
	s.publishes.Add(1)
	if b.shards&shardNames != 0 {
		s.namePubs.Add(1)
	}
	if b.shards&shardLattice != 0 {
		s.latticePubs.Add(1)
	}
	if b.shards&shardRegistry != 0 {
		s.registryPubs.Add(1)
	}
	if b.shards&shardStack != 0 {
		s.stackPubs.Add(1)
	}
	// The transition hook runs under writeMu so a replication publisher
	// observes transitions in strict version order (two flushes can
	// never race past each other here). The hook must only enqueue —
	// anything slow would serialize behind every mutation.
	if s.transHook != nil {
		s.transHook(prev, st)
	}
	s.writeMu.Unlock()
	// Telemetry outside the mutex: the histograms are lock-free.
	s.batchSizes.Observe(time.Duration(b.size)) // unit hack: size as ns
	s.flushLat.Observe(time.Since(b.start))
	switch cs.kind {
	case compileFull:
		s.compFull.Add(1)
	case compileIncremental:
		s.compIncr.Add(1)
	case compileReused:
		s.compReused.Add(1)
	}
	s.compSummaries.Add(uint64(cs.compiles))
	if cs.kind == compileFull || cs.kind == compileIncremental {
		s.compSummaryNs.Observe(time.Duration(cs.sumNs))
		s.compVisNs.Observe(time.Duration(cs.visNs))
		idx := cs.totalNs - cs.sumNs - cs.visNs
		if idx < 0 {
			idx = 0
		}
		s.compIndexNs.Observe(time.Duration(idx))
	}
	for {
		cur := s.maxBatch.Load()
		if uint64(b.size) <= cur || s.maxBatch.CompareAndSwap(cur, uint64(b.size)) {
			break
		}
	}
	// Journal the transition. st is immutable once published, so its
	// shard versions are safe to read here without the mutex.
	rec := &telemetry.EpochTransition{
		Version:   st.version,
		Time:      time.Now(),
		Shards:    shardKinds(b.shards),
		BatchSize: b.size,
		Compile:   cs.kind.label(),
		CompileNS: cs.totalNs,
		PublishNS: time.Since(b.start).Nanoseconds(),
	}
	if st.lat != nil {
		rec.LatticeVersion = st.lat.Version()
		rec.LatticeDeltaBase = st.lat.DeltaBase()
	}
	if st.reg != nil {
		rec.RegistryVersion = st.reg.Version()
		rec.RegistryDeltaBase = st.reg.DeltaBase()
		rec.IncrementalFreeze = st.reg.DeltaBase() != 0
	}
	rec.Kind, rec.PrimaryVersion = b.replicaKind, b.replicaVersion
	s.journal.append(rec)
	close(b.done)
}

// stageTreeLocked stages a name-tree mutation (new root, traversal
// flag) and returns the wait function the mutator calls after
// releasing writeMu. Caller holds writeMu.
func (s *Server) stageTreeLocked(root *Node, traversal bool) func() uint64 {
	b := s.stageLocked(shardNames, func(e *Epoch) {
		e.root = root
		e.traversal = traversal
	})
	return s.waiter(b)
}

// stageLattice is the lattice's publish hook: it stages f as the
// epoch's universe and returns the wait function the definer calls
// after releasing the lattice's writer mutex. Waiting outside both
// mutexes lets concurrent definitions and other shard mutations
// coalesce into one epoch.
func (s *Server) stageLattice(f *lattice.Frozen) func() uint64 {
	s.writeMu.Lock()
	b := s.stageLocked(shardLattice, func(e *Epoch) { e.lat = f })
	s.writeMu.Unlock()
	return s.waiter(b)
}

// stageRegistry is the registry's publish hook; see stageLattice. The
// hook delivers views in version order, but PublishRegistry can race it
// with an older Freeze; a view older than the epoch's own is ignored,
// so the registry shard never moves backwards.
func (s *Server) stageRegistry(f *principal.Frozen) func() uint64 {
	s.writeMu.Lock()
	b := s.stageLocked(shardRegistry, func(e *Epoch) {
		if e.reg == nil || e.reg.Registry() != f.Registry() || f.Version() > e.reg.Version() {
			e.reg = f
		}
	})
	s.writeMu.Unlock()
	return s.waiter(b)
}
