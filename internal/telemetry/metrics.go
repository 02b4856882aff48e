package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the registry of counters and histograms. Counter updates
// are single atomic adds; the guard table is copy-on-write so the
// lookup on the (sampled) trace path is one atomic load plus a map
// read.
type metrics struct {
	// mediations holds one allowed and one denied counter per mediation
	// kind, flattened kind*2+verdict (verdict 0 = allowed).
	mediations []atomic.Uint64
	kinds      []string

	// mediationLat observes the end-to-end latency of sampled
	// mediations (the sampler bounds its cost; counts come from the
	// unsampled counters above).
	mediationLat Histogram

	admitAllowed atomic.Uint64
	admitDenied  atomic.Uint64

	// guards maps guard name -> *guardStat, copy-on-write under mu.
	guards atomic.Pointer[map[string]*guardStat]
	mu     sync.Mutex
}

// guardStat accumulates one guard's verdict counters and evaluation-
// time histogram. Fed from sampled traces only.
type guardStat struct {
	allowed atomic.Uint64
	denied  atomic.Uint64
	lat     Histogram
}

func (m *metrics) init(kinds []string) {
	m.kinds = append([]string(nil), kinds...)
	m.mediations = make([]atomic.Uint64, 2*len(kinds))
	empty := map[string]*guardStat{}
	m.guards.Store(&empty)
}

// mediation counts one mediated decision.
// admission counts one dispatcher admission decision.
func (m *metrics) admission(admitted bool) {
	if admitted {
		m.admitAllowed.Add(1)
	} else {
		m.admitDenied.Add(1)
	}
}

// guard returns the stat record for name, creating it on first use.
func (m *metrics) guard(name string) *guardStat {
	if g, ok := (*m.guards.Load())[name]; ok {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := *m.guards.Load()
	if g, ok := cur[name]; ok {
		return g
	}
	next := make(map[string]*guardStat, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	g := &guardStat{}
	next[name] = g
	m.guards.Store(&next)
	return g
}

// observeGuard records one sampled guard evaluation.
func (m *metrics) observeGuard(name string, allowed bool, d time.Duration) {
	g := m.guard(name)
	if allowed {
		g.allowed.Add(1)
	} else {
		g.denied.Add(1)
	}
	g.lat.Observe(d)
}

// MediationStat is the per-kind decision counters in a Snapshot.
type MediationStat struct {
	Kind    string `json:"kind"`
	Allowed uint64 `json:"allowed"`
	Denied  uint64 `json:"denied"`
}

// GuardStat is one guard's sampled counters and latency in a Snapshot.
type GuardStat struct {
	Name    string       `json:"name"`
	Allowed uint64       `json:"allowed"`
	Denied  uint64       `json:"denied"`
	Latency HistSnapshot `json:"latency"`
}

// Every statistic the telemetry surfaces expose is declared once, in
// this package: the layer that keeps the counters returns one of these
// types directly, and the reference monitor wires its method value in
// (SetNamesStats(ns.Stats), SetAuditStats(log.Stats), ...). This
// package stays a stdlib-only leaf, so every producer can import it.

// CacheStats is the decision cache's counter snapshot. The cache fills
// everything but Invalidations: invalidation is a property of the epoch
// clock, so the reference monitor reports the name server's publish
// count there.
type CacheStats struct {
	Hits          uint64 `json:"hits"`   // lookups served from cache
	Misses        uint64 `json:"misses"` // lookups that fell through to a full check
	Stores        uint64 `json:"stores"` // verdicts published
	Invalidations uint64 `json:"invalidations"`
	Capacity      int    `json:"capacity"` // total slots
}

// NamesStats is the name server's telemetry: the version of the
// currently published policy epoch (the unified protection-state
// generation), the total number of epochs published since boot, and
// the per-shard breakdown of which kind of transition drove each
// publication.
type NamesStats struct {
	Version   uint64 `json:"version"`
	Publishes uint64 `json:"publishes"`
	// Typed epoch transitions: how many publications were driven by
	// name-tree mutations, lattice definitions, registry mutations,
	// and guard-stack changes respectively. A replicated apply carrying
	// a guard stack moves two shards in one publication, so these may
	// sum to more than Publishes.
	NameTransitions     uint64 `json:"name_transitions"`
	LatticeTransitions  uint64 `json:"lattice_transitions"`
	RegistryTransitions uint64 `json:"registry_transitions"`
	StackTransitions    uint64 `json:"stack_transitions"`
	// FlushLatency is the distribution of one epoch publication's
	// latency: derive, compile, store and journal.
	FlushLatency HistSnapshot `json:"flush_latency"`
	// CompiledStats is embedded, so its compiled_* keys sit at this
	// level of the JSON object.
	CompiledStats
	// Shadow divergence monitor: traced checks routed through both the
	// compiled fast path and the authoritative walk, and how many of
	// those comparisons disagreed (compiled=allow, walk=deny). A
	// nonzero divergence count is a correctness alarm.
	ShadowChecks uint64 `json:"shadow_checks"`
	Divergences  uint64 `json:"compiled_divergences"`
	// JournalRecords is the number of epoch-transition records the
	// journal ring currently retains.
	JournalRecords int `json:"journal_records"`
	// Footprint is the current epoch's tree-memory accounting plus the
	// server's intern-table counters (see FootprintStats).
	Footprint FootprintStats `json:"footprint"`
}

// CompiledStats is the compiled-epoch telemetry: how publications obtained
// the read-side compilation (full build / incremental patch / wholesale
// reuse), what the CURRENT epoch's compiled view holds and retains,
// and the freeze-cost split (index build vs ACL-summary compilation vs
// effective/visibility bitset recomputation). RetainedBytes counts
// structures shared across entries and epochs once (what this epoch
// actually pins); RetainedBytesCloned prices every use site
// separately, the upper bound structural sharing avoids. Both are
// estimates (map internals are approximated by slot size).
type CompiledStats struct {
	Full        uint64 `json:"compiled_full"`
	Incremental uint64 `json:"compiled_incremental"`
	Reused      uint64 `json:"compiled_reused"`
	// Summaries counts ACL summaries compiled across all builds: at
	// most one per distinct ACL a build touches.
	Summaries uint64 `json:"-"`

	Entries             int   `json:"compiled_entries"`
	DomClasses          int   `json:"compiled_dom_classes"`
	Sensitive           int   `json:"compiled_sensitive"`
	RetainedBytes       int64 `json:"compiled_retained_bytes"`
	RetainedBytesCloned int64 `json:"compiled_retained_bytes_cloned"`

	IndexBuild     HistSnapshot `json:"compiled_index_build"`
	SummaryCompile HistSnapshot `json:"compiled_summary_compile"`
	VisRecompute   HistSnapshot `json:"compiled_vis_recompute"`
}

// FootprintStats is one epoch's tree-memory accounting: what the
// published tree costs (node structs, child-slice backing arrays,
// path/name strings, distinct ACL values) and how much of it is newly
// allocated versus structure-shared with the parent epoch. The
// name server's Stats adds the write-side intern tables that keep
// re-created strings and ACLs on canonical allocations; an epoch's own
// Footprint leaves those fields zero.
type FootprintStats struct {
	EpochVersion uint64 `json:"epoch_version"` // epoch the numbers describe

	Nodes       int `json:"nodes"`        // all nodes, root included
	Leaves      int `json:"leaves"`       // nodes of leaf kinds
	Directories int `json:"directories"`  // non-leaf nodes
	OwnedNodes  int `json:"owned_nodes"`  // nodes newly allocated by this epoch's publication
	SharedNodes int `json:"shared_nodes"` // nodes pointer-shared with the parent epoch

	ChildSlots      int   `json:"child_slots"`       // total child entries across all directories
	ChildSliceBytes int64 `json:"child_slice_bytes"` // children backing arrays (cap × entry size)
	PathBytes       int64 `json:"path_bytes"`        // canonical path strings (one per node)
	NameBytes       int64 `json:"name_bytes"`        // component-name bytes NOT shared with the node's path backing
	NodeStructBytes int64 `json:"node_struct_bytes"` // Nodes × node struct size

	ACLRefs       int     `json:"acl_refs"`         // nodes (every node holds an ACL reference)
	DistinctACLs  int     `json:"distinct_acls"`    // distinct ACL values in the tree
	ACLBytes      int64   `json:"acl_bytes"`        // entry storage of the distinct ACLs, counted once
	ACLDedupRatio float64 `json:"acl_dedupe_ratio"` // ACLRefs / DistinctACLs

	TotalBytes   int64   `json:"total_bytes"`    // sum of the byte columns above
	BytesPerNode float64 `json:"bytes_per_node"` // TotalBytes / Nodes

	// Write-side intern tables: the path interner and the ACL dedup
	// table, each reset wholesale when it hits its size cap.
	InternedStrings  int    `json:"interned_strings"`
	InternedBytes    int64  `json:"interned_bytes"`
	InternHits       uint64 `json:"intern_hits"`
	InternMisses     uint64 `json:"intern_misses"`
	InternResets     uint64 `json:"intern_resets"`
	ACLCanonDistinct uint64 `json:"acl_canon_distinct"`
	ACLCanonDedups   uint64 `json:"acl_canon_dedups"`
	ACLCanonResets   uint64 `json:"acl_canon_resets"`
}

// EpochTransition is one record of the name server's epoch-transition
// journal: which shards a publication carried, the versions of the
// frozen shards it holds, whether the read-side compilation was
// incremental, and what the publish cost. Records are immutable once
// journaled.
type EpochTransition struct {
	Version uint64    `json:"version"` // version the publication landed in
	Time    time.Time `json:"time"`    // wall-clock publish time
	Shards  []string  `json:"shards"`  // shard kinds the publication moved

	// Frozen-shard provenance: versions of the lattice and registry
	// snapshots the epoch carries. RegistryVersion is zero when no
	// registry is attached.
	LatticeVersion  uint64 `json:"lattice_version"`
	RegistryVersion uint64 `json:"registry_version"`

	// Compile provenance: the build kind of the epoch's compiled read
	// side ("full", "incremental", "reused", or "none" when compiled
	// epochs are off or no registry is attached) and its cost.
	Compile   string `json:"compile"`
	CompileNS int64  `json:"compile_ns"`

	// PublishNS is the latency of the publication that produced this
	// epoch (derive + compile + pointer store), as observed by the
	// writer.
	PublishNS int64 `json:"publish_ns"`

	// Replication provenance: Kind is empty for a local publication,
	// "replica" for an epoch applied from a primary's replication
	// stream, and "replica-stale" for a fail-closed publication a
	// replica installed after missing its staleness deadline.
	// PrimaryVersion is the primary epoch version a replication apply
	// mirrors (zero for local publications) — the field that ties the
	// replica's local version clock to the primary's.
	Kind           string `json:"kind,omitempty"`
	PrimaryVersion uint64 `json:"primary_version,omitempty"`
}

// String renders the transition as a one-line journal entry.
func (e EpochTransition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch v%d %s shards=%s",
		e.Version, e.Time.Format(time.RFC3339Nano), strings.Join(e.Shards, "+"))
	if e.RegistryVersion != 0 {
		fmt.Fprintf(&b, " registry=v%d", e.RegistryVersion)
	}
	if e.LatticeVersion != 0 {
		fmt.Fprintf(&b, " lattice=v%d", e.LatticeVersion)
	}
	fmt.Fprintf(&b, " compile=%s", e.Compile)
	if e.Compile != "none" && e.Compile != "reused" {
		fmt.Fprintf(&b, "(%s)", time.Duration(e.CompileNS))
	}
	fmt.Fprintf(&b, " publish=%s", time.Duration(e.PublishNS))
	if e.Kind != "" {
		fmt.Fprintf(&b, " kind=%s primary=v%d", e.Kind, e.PrimaryVersion)
	}
	return b.String()
}

// ReplicaPeerStat is one connected replica's lag view: the last primary
// epoch it acknowledged, how many epochs it trails the primary by, and
// the bytes streamed to it.
type ReplicaPeerStat struct {
	Name          string `json:"name"`
	Acked         uint64 `json:"acked"`
	Lag           uint64 `json:"lag"`
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	DeltaBytes    uint64 `json:"delta_bytes"`
	Deltas        uint64 `json:"deltas"`
}

// ReplicationStats is the primary-side replication publisher's counter
// snapshot: per-peer lag, transfer volume by message kind, and the
// revocation-barrier wait distribution, as the replication publisher's
// Stats returns it (wired via SetReplication).
type ReplicationStats struct {
	Peers          []ReplicaPeerStat `json:"peers"`
	PrimaryVersion uint64            `json:"primary_version"`
	// Snapshots counts subscriptions, each bootstrapped by one
	// snapshot; SnapshotEncodes counts the snapshot encodings behind
	// them (subscribers at one epoch version share one), and
	// SnapshotBytes the framed wire bytes sent.
	Snapshots       uint64       `json:"snapshots"`
	SnapshotEncodes uint64       `json:"snapshot_encodes"`
	Deltas          uint64       `json:"deltas"`
	SnapshotBytes   uint64       `json:"snapshot_bytes"`
	DeltaBytes      uint64       `json:"delta_bytes"`
	BarrierTimeouts uint64       `json:"barrier_timeouts"`
	BarrierWait     HistSnapshot `json:"barrier_wait"`
}

// AuditStats is the audit log's running counters. Total, Allowed, and
// Denied count mediated decisions only; Bypassed counts unchecked
// operations recorded via RecordBypass, which appear in ByKind and the
// ring but not in the decision counters. Dropped counts ring
// overwrites: events pushed out of the bounded ring by newer ones (they
// remain in the counters and any sinks, but Recent can no longer return
// them). ByKind is indexed by the audit kind; the per-kind mediation
// counters already expose it, so it stays out of the JSON view.
type AuditStats struct {
	Total    uint64   `json:"total"`
	Allowed  uint64   `json:"allowed"`
	Denied   uint64   `json:"denied"`
	Bypassed uint64   `json:"bypassed"`
	Dropped  uint64   `json:"dropped"`
	ByKind   []uint64 `json:"-"`
}

// AdmissionStats counts dispatcher admission decisions.
type AdmissionStats struct {
	Allowed uint64 `json:"allowed"`
	Denied  uint64 `json:"denied"`
}

// Snapshot is a consistent-enough point-in-time view of every metric:
// counters are read once each, histograms satisfy Count == Σ Buckets,
// and successive snapshots are monotone.
type Snapshot struct {
	Mode             string          `json:"mode"`
	SampleEvery      int             `json:"sample_every"`
	Mediations       []MediationStat `json:"mediations"`
	MediationLatency HistSnapshot    `json:"mediation_latency"`
	Guards           []GuardStat     `json:"guards"`
	Cache            CacheStats      `json:"cache"`
	Audit            AuditStats      `json:"audit"`
	Names            NamesStats      `json:"names"`
	Admissions       AdmissionStats  `json:"admissions"`
	TracesSampled    uint64          `json:"traces_sampled"`
	// Replication is present only on a primary with a replication
	// publisher attached (SetReplication).
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// Mediated returns the total decision counts across kinds.
func (s Snapshot) Mediated() (allowed, denied uint64) {
	for _, m := range s.Mediations {
		allowed += m.Allowed
		denied += m.Denied
	}
	return allowed, denied
}

func (m *metrics) snapshot() (meds []MediationStat, lat HistSnapshot, guards []GuardStat, adm AdmissionStats) {
	meds = make([]MediationStat, len(m.kinds))
	for i, k := range m.kinds {
		meds[i] = MediationStat{
			Kind:    k,
			Allowed: m.mediations[2*i].Load(),
			Denied:  m.mediations[2*i+1].Load(),
		}
	}
	lat = m.mediationLat.Snapshot()
	cur := *m.guards.Load()
	guards = make([]GuardStat, 0, len(cur))
	for name, g := range cur {
		guards = append(guards, GuardStat{
			Name:    name,
			Allowed: g.allowed.Load(),
			Denied:  g.denied.Load(),
			Latency: g.lat.Snapshot(),
		})
	}
	sort.Slice(guards, func(i, j int) bool { return guards[i].Name < guards[j].Name })
	adm = AdmissionStats{Allowed: m.admitAllowed.Load(), Denied: m.admitDenied.Load()}
	return meds, lat, guards, adm
}
