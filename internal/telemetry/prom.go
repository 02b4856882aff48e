package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteProm renders a snapshot in the Prometheus text exposition format
// (version 0.0.4) using only the standard library. Histograms are
// emitted with cumulative log-2 buckets in seconds, trimmed past the
// last occupied bucket to keep the page readable.
func WriteProm(w io.Writer, s Snapshot) error {
	ew := &errWriter{w: w}

	ew.printf("# HELP secext_mediations_total Mediated access decisions by kind and verdict.\n")
	ew.printf("# TYPE secext_mediations_total counter\n")
	for _, m := range s.Mediations {
		ew.printf("secext_mediations_total{kind=%s,verdict=\"allowed\"} %d\n", promQuote(m.Kind), m.Allowed)
		ew.printf("secext_mediations_total{kind=%s,verdict=\"denied\"} %d\n", promQuote(m.Kind), m.Denied)
	}

	ew.printf("# HELP secext_decision_cache_hits_total Decision-cache lookups served from cache.\n")
	ew.printf("# TYPE secext_decision_cache_hits_total counter\n")
	ew.printf("secext_decision_cache_hits_total %d\n", s.Cache.Hits)
	ew.printf("# HELP secext_decision_cache_misses_total Decision-cache lookups that took the full check.\n")
	ew.printf("# TYPE secext_decision_cache_misses_total counter\n")
	ew.printf("secext_decision_cache_misses_total %d\n", s.Cache.Misses)
	ew.printf("# HELP secext_decision_cache_invalidations_total Protection-state generation bumps.\n")
	ew.printf("# TYPE secext_decision_cache_invalidations_total counter\n")
	ew.printf("secext_decision_cache_invalidations_total %d\n", s.Cache.Invalidations)
	ew.printf("# HELP secext_decision_cache_stores_total Verdicts published into the decision cache.\n")
	ew.printf("# TYPE secext_decision_cache_stores_total counter\n")
	ew.printf("secext_decision_cache_stores_total %d\n", s.Cache.Stores)

	ew.printf("# HELP secext_epoch_version Version of the currently published policy epoch (name tree + lattice + registry + guard stack).\n")
	ew.printf("# TYPE secext_epoch_version gauge\n")
	ew.printf("secext_epoch_version %d\n", s.Names.Version)
	ew.printf("# HELP secext_names_snapshot_version Version of the currently published name-space snapshot (alias of secext_epoch_version).\n")
	ew.printf("# TYPE secext_names_snapshot_version gauge\n")
	ew.printf("secext_names_snapshot_version %d\n", s.Names.Version)
	ew.printf("# HELP secext_names_publishes_total Policy epochs published since boot.\n")
	ew.printf("# TYPE secext_names_publishes_total counter\n")
	ew.printf("secext_names_publishes_total %d\n", s.Names.Publishes)
	ew.printf("# HELP secext_epoch_transitions_total Policy-epoch publications by the shard whose change drove them.\n")
	ew.printf("# TYPE secext_epoch_transitions_total counter\n")
	ew.printf("secext_epoch_transitions_total{shard=\"names\"} %d\n", s.Names.NameTransitions)
	ew.printf("secext_epoch_transitions_total{shard=\"lattice\"} %d\n", s.Names.LatticeTransitions)
	ew.printf("secext_epoch_transitions_total{shard=\"registry\"} %d\n", s.Names.RegistryTransitions)
	ew.printf("secext_epoch_transitions_total{shard=\"stack\"} %d\n", s.Names.StackTransitions)
	ew.printf("# HELP secext_epoch_batched_mutations_total Mutations staged through the write-combining epoch publisher.\n")
	ew.printf("# TYPE secext_epoch_batched_mutations_total counter\n")
	ew.printf("secext_epoch_batched_mutations_total %d\n", s.Names.BatchedMutations)
	ew.printf("# HELP secext_epoch_max_batch Largest number of mutations one epoch publication carried.\n")
	ew.printf("# TYPE secext_epoch_max_batch gauge\n")
	ew.printf("secext_epoch_max_batch %d\n", s.Names.MaxBatch)

	ew.printf("# HELP secext_epoch_index_incremental_total Compiled-epoch builds patched incrementally from the parent epoch's index.\n")
	ew.printf("# TYPE secext_epoch_index_incremental_total counter\n")
	ew.printf("secext_epoch_index_incremental_total %d\n", s.Names.CompiledIncremental)
	ew.printf("# HELP secext_epoch_index_full_total Compiled-epoch builds rebuilt from scratch.\n")
	ew.printf("# TYPE secext_epoch_index_full_total counter\n")
	ew.printf("secext_epoch_index_full_total %d\n", s.Names.CompiledFull)
	ew.printf("# HELP secext_epoch_index_reused_total Flushes that reused the parent epoch's compiled view wholesale.\n")
	ew.printf("# TYPE secext_epoch_index_reused_total counter\n")
	ew.printf("secext_epoch_index_reused_total %d\n", s.Names.CompiledReused)
	ew.printf("# HELP secext_epoch_index_entries Path index entries in the current epoch's compiled view.\n")
	ew.printf("# TYPE secext_epoch_index_entries gauge\n")
	ew.printf("secext_epoch_index_entries %d\n", s.Names.CompiledEntries)
	ew.printf("# HELP secext_epoch_compiled_retained_bytes Heap bytes the current epoch's compiled view retains, shared structures counted once (label deduped=\"false\" prices every use site).\n")
	ew.printf("# TYPE secext_epoch_compiled_retained_bytes gauge\n")
	ew.printf("secext_epoch_compiled_retained_bytes{deduped=\"true\"} %d\n", s.Names.CompiledRetainedBytes)
	ew.printf("secext_epoch_compiled_retained_bytes{deduped=\"false\"} %d\n", s.Names.CompiledRetainedBytesCloned)

	ew.printf("# HELP secext_compiled_shadow_checks_total Sampled checks routed through both the compiled fast path and the authoritative walk.\n")
	ew.printf("# TYPE secext_compiled_shadow_checks_total counter\n")
	ew.printf("secext_compiled_shadow_checks_total %d\n", s.Names.ShadowChecks)
	ew.printf("# HELP secext_compiled_divergence_total Shadow comparisons where the compiled verdict diverged from the walk (correctness alarm; the walk's verdict was enforced).\n")
	ew.printf("# TYPE secext_compiled_divergence_total counter\n")
	ew.printf("secext_compiled_divergence_total %d\n", s.Names.Divergences)
	ew.printf("# HELP secext_epoch_journal_records Epoch-transition records currently retained in the journal ring.\n")
	ew.printf("# TYPE secext_epoch_journal_records gauge\n")
	ew.printf("secext_epoch_journal_records %d\n", s.Names.JournalRecords)

	fp := s.Names.Footprint
	ew.printf("# HELP secext_epoch_footprint_nodes Nodes in the current epoch's name tree by role.\n")
	ew.printf("# TYPE secext_epoch_footprint_nodes gauge\n")
	ew.printf("secext_epoch_footprint_nodes{role=\"all\"} %d\n", fp.Nodes)
	ew.printf("secext_epoch_footprint_nodes{role=\"leaf\"} %d\n", fp.Leaves)
	ew.printf("secext_epoch_footprint_nodes{role=\"directory\"} %d\n", fp.Directories)
	ew.printf("# HELP secext_epoch_footprint_sharing Nodes newly allocated by the current epoch's publication versus pointer-shared with the parent epoch.\n")
	ew.printf("# TYPE secext_epoch_footprint_sharing gauge\n")
	ew.printf("secext_epoch_footprint_sharing{nodes=\"owned\"} %d\n", fp.OwnedNodes)
	ew.printf("secext_epoch_footprint_sharing{nodes=\"shared\"} %d\n", fp.SharedNodes)
	ew.printf("# HELP secext_epoch_footprint_bytes Estimated heap bytes the current epoch's tree retains, by component.\n")
	ew.printf("# TYPE secext_epoch_footprint_bytes gauge\n")
	ew.printf("secext_epoch_footprint_bytes{component=\"node_structs\"} %d\n", fp.NodeStructBytes)
	ew.printf("secext_epoch_footprint_bytes{component=\"child_slices\"} %d\n", fp.ChildSliceBytes)
	ew.printf("secext_epoch_footprint_bytes{component=\"paths\"} %d\n", fp.PathBytes)
	ew.printf("secext_epoch_footprint_bytes{component=\"names\"} %d\n", fp.NameBytes)
	ew.printf("secext_epoch_footprint_bytes{component=\"acls\"} %d\n", fp.ACLBytes)
	ew.printf("secext_epoch_footprint_bytes{component=\"total\"} %d\n", fp.TotalBytes)
	ew.printf("# HELP secext_epoch_footprint_bytes_per_node Estimated tree bytes per node in the current epoch.\n")
	ew.printf("# TYPE secext_epoch_footprint_bytes_per_node gauge\n")
	ew.printf("secext_epoch_footprint_bytes_per_node %g\n", fp.BytesPerNode)
	ew.printf("# HELP secext_epoch_footprint_acl_dedupe_ratio ACL references per distinct ACL value in the current epoch's tree.\n")
	ew.printf("# TYPE secext_epoch_footprint_acl_dedupe_ratio gauge\n")
	ew.printf("secext_epoch_footprint_acl_dedupe_ratio %g\n", fp.ACLDedupRatio)
	ew.printf("# HELP secext_interner_strings Canonical strings currently held by the server's path interner.\n")
	ew.printf("# TYPE secext_interner_strings gauge\n")
	ew.printf("secext_interner_strings %d\n", fp.InternedStrings)
	ew.printf("# HELP secext_interner_bytes Unique bytes currently held by the server's path interner.\n")
	ew.printf("# TYPE secext_interner_bytes gauge\n")
	ew.printf("secext_interner_bytes %d\n", fp.InternedBytes)
	ew.printf("# HELP secext_interner_lookups_total Path-interner lookups by outcome.\n")
	ew.printf("# TYPE secext_interner_lookups_total counter\n")
	ew.printf("secext_interner_lookups_total{outcome=\"hit\"} %d\n", fp.InternHits)
	ew.printf("secext_interner_lookups_total{outcome=\"miss\"} %d\n", fp.InternMisses)
	ew.printf("# HELP secext_interner_resets_total Wholesale intern-table resets after hitting the size cap (interner plus ACL table).\n")
	ew.printf("# TYPE secext_interner_resets_total counter\n")
	ew.printf("secext_interner_resets_total{table=\"paths\"} %d\n", fp.InternResets)
	ew.printf("secext_interner_resets_total{table=\"acls\"} %d\n", fp.ACLCanonResets)
	ew.printf("# HELP secext_acl_canon_dedups_total Fresh ACLs deduplicated onto an existing canonical value.\n")
	ew.printf("# TYPE secext_acl_canon_dedups_total counter\n")
	ew.printf("secext_acl_canon_dedups_total %d\n", fp.ACLCanonDedups)

	ew.printf("# HELP secext_audit_events_total Audit log decisions by verdict, plus mediation bypasses.\n")
	ew.printf("# TYPE secext_audit_events_total counter\n")
	ew.printf("secext_audit_events_total{verdict=\"allowed\"} %d\n", s.Audit.Allowed)
	ew.printf("secext_audit_events_total{verdict=\"denied\"} %d\n", s.Audit.Denied)
	ew.printf("secext_audit_events_total{verdict=\"bypassed\"} %d\n", s.Audit.Bypassed)
	ew.printf("# HELP secext_audit_ring_dropped_total Audit events overwritten in the bounded ring.\n")
	ew.printf("# TYPE secext_audit_ring_dropped_total counter\n")
	ew.printf("secext_audit_ring_dropped_total %d\n", s.Audit.Dropped)

	ew.printf("# HELP secext_dispatch_admissions_total Dispatcher admission decisions.\n")
	ew.printf("# TYPE secext_dispatch_admissions_total counter\n")
	ew.printf("secext_dispatch_admissions_total{verdict=\"admitted\"} %d\n", s.Admissions.Allowed)
	ew.printf("secext_dispatch_admissions_total{verdict=\"rejected\"} %d\n", s.Admissions.Denied)

	ew.printf("# HELP secext_traces_sampled_total Mediations selected by the trace sampler.\n")
	ew.printf("# TYPE secext_traces_sampled_total counter\n")
	ew.printf("secext_traces_sampled_total %d\n", s.TracesSampled)

	writePromHist(ew, "secext_mediation_seconds",
		"End-to-end mediation latency (sampled).", "", s.MediationLatency)
	writePromHistWith(ew, "secext_epoch_batch_size",
		"Mutations coalesced into one epoch publication.", "",
		s.Names.BatchSize, formatCount)
	writePromHist(ew, "secext_epoch_flush_seconds",
		"Latency from first staged mutation to epoch publication.", "",
		s.Names.FlushLatency)
	writePromHist(ew, "secext_epoch_compile_index_seconds",
		"Per-flush compiled-epoch index build time (walk, copy-on-write index shard clones, dominance interning).", "",
		s.Names.CompiledIndexBuild)
	writePromHist(ew, "secext_epoch_compile_summary_seconds",
		"Per-flush ACL-summary compilation time within compiled-epoch builds.", "",
		s.Names.CompiledSummaryCompile)
	writePromHist(ew, "secext_epoch_compile_bitset_seconds",
		"Per-flush effective/visibility bitset recomputation time within compiled-epoch builds.", "",
		s.Names.CompiledVisRecompute)
	for _, g := range s.Guards {
		writePromHist(ew, "secext_guard_eval_seconds",
			"Per-guard evaluation latency (sampled).",
			"guard="+promQuote(g.Name), g.Latency)
	}

	if s.Replication != nil {
		r := s.Replication
		ew.printf("# HELP secext_replica_primary_version Primary epoch version the publisher is streaming.\n")
		ew.printf("# TYPE secext_replica_primary_version gauge\n")
		ew.printf("secext_replica_primary_version %d\n", r.PrimaryVersion)
		ew.printf("# HELP secext_replica_peers Currently subscribed replica peers.\n")
		ew.printf("# TYPE secext_replica_peers gauge\n")
		ew.printf("secext_replica_peers %d\n", len(r.Peers))
		ew.printf("# HELP secext_replica_lag Epochs a peer trails the primary by (primary version minus last acked).\n")
		ew.printf("# TYPE secext_replica_lag gauge\n")
		for _, p := range r.Peers {
			ew.printf("secext_replica_lag{peer=%s} %d\n", promQuote(p.Name), p.Lag)
		}
		ew.printf("# HELP secext_replica_messages_total Replication messages sent by kind.\n")
		ew.printf("# TYPE secext_replica_messages_total counter\n")
		ew.printf("secext_replica_messages_total{kind=\"snapshot\"} %d\n", r.Snapshots)
		ew.printf("secext_replica_messages_total{kind=\"snapshot_gz\"} %d\n", r.SnapshotsGz)
		ew.printf("secext_replica_messages_total{kind=\"delta\"} %d\n", r.Deltas)
		ew.printf("# HELP secext_replica_bytes_total Replication payload bytes by kind: snapshot is the raw JSON size of every snapshot, snapshot_gz the compressed wire size of those sent gzipped (protocol >= 3), delta the delta stream.\n")
		ew.printf("# TYPE secext_replica_bytes_total counter\n")
		ew.printf("secext_replica_bytes_total{kind=\"snapshot\"} %d\n", r.SnapshotBytes)
		ew.printf("secext_replica_bytes_total{kind=\"snapshot_gz\"} %d\n", r.SnapshotGzBytes)
		ew.printf("secext_replica_bytes_total{kind=\"delta\"} %d\n", r.DeltaBytes)
		ew.printf("# HELP secext_replica_barrier_timeouts_total Revocation barriers that timed out before the fleet acked.\n")
		ew.printf("# TYPE secext_replica_barrier_timeouts_total counter\n")
		ew.printf("secext_replica_barrier_timeouts_total %d\n", r.BarrierTimeouts)
		writePromHist(ew, "secext_replica_barrier_wait_seconds",
			"Time revocation barriers waited for fleet-wide acknowledgment.", "",
			r.BarrierWait)
	}
	return ew.err
}

// writePromHist emits one histogram metric family with bucket bounds
// and sum rendered as seconds; labels is either "" or a rendered
// `name="value"` list without braces.
func writePromHist(ew *errWriter, name, help, labels string, h HistSnapshot) {
	writePromHistWith(ew, name, help, labels, h, formatSeconds)
}

// writePromHistWith is writePromHist with an explicit value formatter,
// so histograms that reuse the nanosecond buckets for unitless counts
// (e.g. batch sizes) can render raw bucket bounds instead of seconds.
func writePromHistWith(ew *errWriter, name, help, labels string, h HistSnapshot, format func(float64) string) {
	ew.printf("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	last := 0
	for i, c := range h.Buckets {
		if c > 0 {
			last = i
		}
	}
	cum := uint64(0)
	for b := 0; b <= last; b++ {
		cum += h.Buckets[b]
		_, hi := bucketBounds(b)
		ew.printf("%s_bucket{%s} %d\n", name, promLabels(labels, "le", format(hi)), cum)
	}
	ew.printf("%s_bucket{%s} %d\n", name, promLabels(labels, "le", "+Inf"), h.Count)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	ew.printf("%s_sum%s %s\n", name, labels, format(float64(h.SumNS)))
	ew.printf("%s_count%s %d\n", name, labels, h.Count)
}

// promLabels joins an optional pre-rendered label list with one more
// label pair.
func promLabels(labels, k, v string) string {
	pair := k + "=" + promQuote(v)
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// promQuote renders a label value per the Prometheus text exposition
// format (0.0.4): backslash, double quote, and line feed are escaped
// as \\, \", and \n; every other byte — UTF-8 sequences included —
// passes through literally. strconv.Quote is NOT a substitute: it
// emits Go-style escapes (\t, \xNN, \uNNNN) the exposition format
// does not define, which scrapers would ingest as literal backslash
// sequences or reject.
func promQuote(v string) string {
	var b strings.Builder
	b.Grow(len(v) + 2)
	b.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// formatSeconds renders a nanosecond quantity as seconds.
func formatSeconds(ns float64) string {
	return strconv.FormatFloat(ns/1e9, 'g', -1, 64)
}

// formatCount renders a bucket bound as a raw (unitless) number, for
// histograms whose nanosecond buckets actually hold counts.
func formatCount(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
