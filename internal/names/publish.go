package names

import (
	"time"

	"secext/internal/lattice"
	"secext/internal/telemetry"
)

// Epoch publisher.
//
// Every epoch transition — an Apply, a bulk bind, a replicated apply, a
// lattice definition, a registry edit, a guard install, a toggle — is
// one call to publishLocked under writeMu: derive the successor of the
// published epoch, let the caller fill in the shards that moved,
// compile the read-side view, store it, and journal it. The mutator
// gets the landing version back directly.
//
// Ordering contract: versions advance by exactly one per publication,
// and a mutation's returned version is the epoch that carries it, so
// no reader can observe an epoch >= that version without the mutation
// applied. The mutator returns only after the store, so the revocation
// barrier holds: when a Registry.Apply carrying a RemoveMember returns,
// the revocation is enforced for every future decision.

// Shard bits identifying which policy shards a publication moved; the
// publication bumps one typed transition counter per shard.
const (
	shardNames uint8 = 1 << iota
	shardLattice
	shardRegistry
	shardStack
)

// publishLocked publishes the successor of the current epoch at
// version+1 with mutate applied to it, and returns that version. shards
// names the shards mutate moves; kind and primaryVersion stamp the
// journal record of a replicated transition (empty and zero for a local
// one). Caller holds writeMu.
func (s *Server) publishLocked(shards uint8, kind string, primaryVersion uint64, mutate func(*Epoch)) uint64 {
	start := time.Now()
	prev := s.epoch.Load()
	next := *prev
	next.version++
	next.compiled = nil
	mutate(&next)
	// Compile the successor's read-side structures while s.epoch still
	// holds the parent (compileEpoch builds incrementally from the
	// parent's compiled view). This is the one deliberate cost the
	// write path pays for the read path.
	var cs compileStats
	if !s.compiledOff && next.reg != nil {
		next.compiled, cs = s.compileEpoch(&next)
	}
	// Footprint accounting: count the nodes this publication allocated
	// (everything not pointer-shared with the parent tree). The walk is
	// pruned at shared subtrees, so a typical publication pays O(spine).
	next.owned = countOwned(prev.root, next.root)
	next.fp = &fpCell{}
	s.epoch.Store(&next)
	s.publishes.Add(1)
	if shards&shardNames != 0 {
		s.namePubs.Add(1)
	}
	if shards&shardLattice != 0 {
		s.latticePubs.Add(1)
	}
	if shards&shardRegistry != 0 {
		s.registryPubs.Add(1)
	}
	if shards&shardStack != 0 {
		s.stackPubs.Add(1)
	}
	// The transition hook runs under writeMu so a replication publisher
	// observes transitions in strict version order. The hook must only
	// enqueue — anything slow would serialize behind every mutation.
	if s.transHook != nil {
		s.transHook(prev, &next)
	}
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
		s.compIndexNs.Observe(time.Duration(max(cs.totalNs-cs.sumNs-cs.visNs, 0)))
	}
	elapsed := time.Since(start)
	s.flushLat.Observe(elapsed)
	rec := &telemetry.EpochTransition{
		Version:        next.version,
		Time:           time.Now(),
		Shards:         shardKinds(shards),
		Compile:        cs.kind.label(),
		CompileNS:      cs.totalNs,
		PublishNS:      elapsed.Nanoseconds(),
		Kind:           kind,
		PrimaryVersion: primaryVersion,
	}
	if next.lat != nil {
		rec.LatticeVersion = next.lat.Version()
	}
	if next.reg != nil {
		rec.RegistryVersion = next.reg.Version()
	}
	s.journal.append(rec)
	return next.version
}

// publishTreeLocked publishes a name-tree transition (a new root).
// Caller holds writeMu.
func (s *Server) publishTreeLocked(root *Node) uint64 {
	return s.publishLocked(shardNames, "", 0, func(e *Epoch) { e.root = root })
}

// publishLattice is the lattice's publish hook: it publishes f as the
// epoch's universe and returns the landing version. It runs under the
// lattice's writer mutex, so definitions land in version order.
func (s *Server) publishLattice(f *lattice.Frozen) uint64 {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.publishLocked(shardLattice, "", 0, func(e *Epoch) { e.lat = f })
}
