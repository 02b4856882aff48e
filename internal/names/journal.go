package names

import (
	"sync/atomic"

	"secext/internal/telemetry"
)

// journalCap is the number of epoch-transition records the journal
// retains. Old records are overwritten ring-style; 256 transitions is
// hours of history under interactive policy editing and a few seconds
// under a churn benchmark, which is exactly the window a divergence or
// latency investigation needs.
const journalCap = 256

// epochJournal is a lock-free ring of transition records. Appends are
// one atomic add plus one pointer store; snapshots read pointers
// without stopping writers. The zero value is ready to use, so the
// Server embeds it without construction. A record observed mid-append
// is either the old or the new pointer — never a torn record — because
// the slot holds a pointer to an immutable struct.
type epochJournal struct {
	slots [journalCap]atomic.Pointer[telemetry.EpochTransition]
	pos   atomic.Uint64 // total appends since boot
}

func (j *epochJournal) append(r *telemetry.EpochTransition) {
	i := j.pos.Add(1) - 1
	j.slots[i%journalCap].Store(r)
}

// snapshot returns up to n records, newest first. n <= 0 means all
// retained records. Concurrent appends may overwrite the oldest slots
// while we read; a slot whose pointer moved forward simply yields the
// newer record, so the result is always a set of real transitions.
func (j *epochJournal) snapshot(n int) []telemetry.EpochTransition {
	total := j.pos.Load()
	avail := total
	if avail > journalCap {
		avail = journalCap
	}
	if n <= 0 || uint64(n) > avail {
		n = int(avail)
	}
	out := make([]telemetry.EpochTransition, 0, n)
	for k := 0; k < n; k++ {
		// Walk backwards from the most recent append.
		idx := (total - 1 - uint64(k)) % journalCap
		if r := j.slots[idx].Load(); r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// recorded returns the number of records currently retained.
func (j *epochJournal) recorded() int {
	total := j.pos.Load()
	if total > journalCap {
		return journalCap
	}
	return int(total)
}

// Journal returns up to n epoch-transition records, newest first
// (n <= 0 means all retained records). The snapshot is lock-free and
// never blocks writers; see telemetry.EpochTransition for field
// semantics.
func (s *Server) Journal(n int) []telemetry.EpochTransition {
	return s.journal.snapshot(n)
}

// label renders a compile build kind for journal records and
// telemetry.
func (k compileKind) label() string {
	switch k {
	case compileFull:
		return "full"
	case compileIncremental:
		return "incremental"
	case compileReused:
		return "reused"
	}
	return "none"
}

// shardKinds returns the human-readable shard kinds one publication
// moved, from its shard bitmask.
func shardKinds(shards uint8) []string {
	var out []string
	if shards&shardNames != 0 {
		out = append(out, "names")
	}
	if shards&shardLattice != 0 {
		out = append(out, "lattice")
	}
	if shards&shardRegistry != 0 {
		out = append(out, "registry")
	}
	if shards&shardStack != 0 {
		out = append(out, "stack")
	}
	return out
}
