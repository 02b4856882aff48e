GO ?= go

.PHONY: all build vet test race allocs fuzz-smoke check cover bench-module bench-smoke bench bench-churn bench-resolve bench-replica bench-load tables

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The -cpu matrix covers the write path's shared machinery: the names
# package (Apply in apply.go, the epoch publisher) and the principal
# registry's Apply, among the other policy packages. It also covers the
# observability layer's concurrent code: telemetry's histograms and
# trace ring, the audit log's per-slot ring, and scrapes that read
# names.Server.Stats while flushes run. The remote server is in it
# because a session's reply buffer passes from the dispatch loop to the
# replication stream's writer goroutine at SUBSCRIBE.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu=1,4,8 ./internal/names/... ./internal/acl/... ./internal/idset/... ./internal/monitor/... ./internal/decision/... ./internal/lattice/... ./internal/principal/... ./internal/core/... ./internal/provenance/... ./internal/replica/... ./internal/telemetry/... ./internal/audit/... ./internal/remote/...

# allocs runs the allocation pins without the race detector, whose
# instrumentation changes allocation counts (the pins skip under -race,
# so `race` alone never checks them): a repeated denied CheckData, an
# audit Record of an allow or a denial, the name tree's iteration, and
# the rest of the tests named *Alloc*.
allocs:
	$(GO) test -run Alloc ./internal/...

# fuzz-smoke runs seven fuzzers for a few seconds each: the
# decision-surface fuzzer (every surface that computes a check — the
# compiled path, the walk, the uncached and the cached and the traced
# check, Explain, a delta-fed and a bootstrapped mirror, the baseline
# adapter and a rule oracle — gives the walk's verdict and denial text
# at every epoch of a random policy history), the concurrent
# epoch transition fuzzer (consistency, compiled view against a full
# compile), the delta codec fuzzer (a mirror bootstrapped from snapshot
# frames and replaying delta frames equals the primary), the epoch
# stream fuzzer (arbitrary snapshot or delta frames never panic; what
# decodes and installs re-encodes to the same frames), the registry
# Apply fuzzer (closure
# against a naive walk, atomic failures, copy-on-write sharing), and
# the persistent map fuzzer (the trie against a Go map, earlier
# versions unchanged, no build writing a node it did not allocate,
# untouched subtrees shared), and the ID-set fuzzer (every operation
# against a map, every chunk layout and its transitions, an unchanged
# operand returned by pointer).
# Their seed corpora run in every `go test`; this explores beyond them.
fuzz-smoke:
	$(GO) test ./internal/names -run '^$$' -fuzz FuzzDecisionSurfaces -fuzztime 10s
	$(GO) test ./internal/names -run '^$$' -fuzz FuzzEpochTransitions -fuzztime 10s
	$(GO) test ./internal/names -run '^$$' -fuzz FuzzEpochDeltaCodec -fuzztime 10s
	$(GO) test ./internal/names -run '^$$' -fuzz FuzzSnapshotStream -fuzztime 10s
	$(GO) test ./internal/principal -run '^$$' -fuzz FuzzRegistryApply -fuzztime 10s
	$(GO) test ./internal/hamt -run '^$$' -fuzz FuzzPersistentMap -fuzztime 10s
	$(GO) test ./internal/idset -run '^$$' -fuzz FuzzIDSet -fuzztime 10s

# check is the full local gate: build, vet, the complete test suite
# under the race detector, the allocation pins without it, a short run
# of the epoch fuzzers, the nested bench module (which compiles against
# this module's API, so an API change that breaks it must fail here),
# and a benchmark smoke run so the harness itself cannot bit-rot
# unnoticed.
check: build vet race allocs fuzz-smoke bench-module bench-smoke

bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test .

# cover runs the monitor, telemetry, names, hamt, idset, lattice, and
# principal packages' tests with coverage and enforces per-tree floors: the policy
# layer is the code whose regressions are security bugs, the telemetry
# layer is what makes such regressions observable in production, the
# name server is the mechanism every decision rides through, and the
# lattice and principal registries are the frozen shards every epoch
# bundles, so all five stay covered.
MONITOR_COVER_FLOOR := 90.0
TELEMETRY_COVER_FLOOR := 90.0
NAMES_COVER_FLOOR := 90.0
LATTICE_COVER_FLOOR := 85.0
PRINCIPAL_COVER_FLOOR := 85.0
# The epoch publisher is the write path every transition rides; its
# file keeps its own floor so the package average cannot hide it.
BATCH_COVER_FLOOR := 85.0
# Apply is the name server's one mutation entry point; its file keeps
# its own floor so the package average cannot hide an untested edit
# kind or failure branch.
APPLY_COVER_FLOOR := 85.0
# The persistent trie (internal/hamt) is what every compiled resolve
# probes, every incremental build path-copies and every principal
# lookup reads; its package keeps its own floor.
HAMT_COVER_FLOOR := 85.0
# The ID sets (internal/idset) hold every compiled grant, visibility
# chain and group's member list; a layout branch no test reaches is a
# verdict no test checks. Measured 93.0%.
IDSET_COVER_FLOOR := 90.0
# Compiled epochs are new read-path machinery: the freeze-time index
# and the ACL-summary bitsets each keep a per-file floor for the same
# reason.
COMPILED_COVER_FLOOR := 85.0
SUMMARY_COVER_FLOOR := 85.0
# The provenance engine answers "why was this allowed?" — an explain
# path with an untested branch is an explanation you cannot trust, so
# every file in the package keeps the floor individually.
PROVENANCE_COVER_FLOOR := 85.0
# The replication engine moves whole policies between mediators; an
# untested branch there is a fleet-wide policy bug, so every file in
# the package keeps the floor individually.
REPLICA_COVER_FLOOR := 85.0
# The compact node layout and the intern/dedup tables are what every
# million-node claim rests on, and the epoch codec (wire, snapframe) is
# what every replica installs; each file keeps its own floor so the
# package average cannot hide a hole in that machinery or in the
# codec's rejection branches.
LAYOUT_COVER_FLOOR := 85.0
cover:
	$(GO) test -coverprofile=cover.out ./internal/monitor/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "internal/monitor coverage: $$total% (floor $(MONITOR_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(MONITOR_COVER_FLOOR))}" || \
		{ echo "coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover-telemetry.out ./internal/telemetry/
	@total=$$($(GO) tool cover -func=cover-telemetry.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "internal/telemetry coverage: $$total% (floor $(TELEMETRY_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(TELEMETRY_COVER_FLOOR))}" || \
		{ echo "coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover-names.out ./internal/names/
	@total=$$($(GO) tool cover -func=cover-names.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "internal/names coverage: $$total% (floor $(NAMES_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(NAMES_COVER_FLOOR))}" || \
		{ echo "coverage below floor"; exit 1; }
	@publish=$$($(GO) tool cover -func=cover-names.out | awk '/internal\/names\/publish\.go/ {gsub(/%/,"",$$3); sum += $$3; n++} END {if (n) printf "%.1f", sum/n; else print 0}'); \
	echo "internal/names/publish.go coverage: $$publish% (floor $(BATCH_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$publish >= $(BATCH_COVER_FLOOR))}" || \
		{ echo "epoch-publisher coverage below floor"; exit 1; }
	@apply=$$($(GO) tool cover -func=cover-names.out | awk '/internal\/names\/apply\.go/ {gsub(/%/,"",$$3); sum += $$3; n++} END {if (n) printf "%.1f", sum/n; else print 0}'); \
	echo "internal/names/apply.go coverage: $$apply% (floor $(APPLY_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$apply >= $(APPLY_COVER_FLOOR))}" || \
		{ echo "Apply coverage below floor"; exit 1; }
	@compiled=$$($(GO) tool cover -func=cover-names.out | awk '/internal\/names\/compiled\.go/ {gsub(/%/,"",$$3); sum += $$3; n++} END {if (n) printf "%.1f", sum/n; else print 0}'); \
	echo "internal/names/compiled.go coverage: $$compiled% (floor $(COMPILED_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$compiled >= $(COMPILED_COVER_FLOOR))}" || \
		{ echo "compiled-epoch coverage below floor"; exit 1; }
	@for f in childref intern footprint bulk wire snapframe; do \
		avg=$$($(GO) tool cover -func=cover-names.out | awk "/internal\/names\/$$f\.go/ {gsub(/%/,\"\",\$$3); sum += \$$3; n++} END {if (n) printf \"%.1f\", sum/n; else print 0}"); \
		echo "internal/names/$$f.go coverage: $$avg% (floor $(LAYOUT_COVER_FLOOR)%)"; \
		awk "BEGIN {exit !($$avg >= $(LAYOUT_COVER_FLOOR))}" || \
			{ echo "compact-layout coverage below floor"; exit 1; }; \
	done
	$(GO) test -coverprofile=cover-hamt.out ./internal/hamt/
	@total=$$($(GO) tool cover -func=cover-hamt.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "internal/hamt coverage: $$total% (floor $(HAMT_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(HAMT_COVER_FLOOR))}" || \
		{ echo "persistent-map coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover-idset.out ./internal/idset/
	@total=$$($(GO) tool cover -func=cover-idset.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "internal/idset coverage: $$total% (floor $(IDSET_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(IDSET_COVER_FLOOR))}" || \
		{ echo "ID-set coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover-acl.out ./internal/acl/
	@summary=$$($(GO) tool cover -func=cover-acl.out | awk '/internal\/acl\/summary\.go/ {gsub(/%/,"",$$3); sum += $$3; n++} END {if (n) printf "%.1f", sum/n; else print 0}'); \
	echo "internal/acl/summary.go coverage: $$summary% (floor $(SUMMARY_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$summary >= $(SUMMARY_COVER_FLOOR))}" || \
		{ echo "acl-summary coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover-provenance.out ./internal/provenance/
	@$(GO) tool cover -func=cover-provenance.out | \
	awk '/internal\/provenance\/.*\.go/ {split($$1, p, ":"); gsub(/%/,"",$$3); sum[p[1]] += $$3; n[p[1]]++} \
	END {bad = 0; for (f in sum) {avg = sum[f]/n[f]; printf "%s coverage: %.1f%% (floor $(PROVENANCE_COVER_FLOOR)%%)\n", f, avg; \
	if (avg < $(PROVENANCE_COVER_FLOOR)) bad = 1} exit bad}' || \
		{ echo "provenance per-file coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover-replica.out ./internal/replica/
	@$(GO) tool cover -func=cover-replica.out | \
	awk '/internal\/replica\/.*\.go/ {split($$1, p, ":"); gsub(/%/,"",$$3); sum[p[1]] += $$3; n[p[1]]++} \
	END {bad = 0; for (f in sum) {avg = sum[f]/n[f]; printf "%s coverage: %.1f%% (floor $(REPLICA_COVER_FLOOR)%%)\n", f, avg; \
	if (avg < $(REPLICA_COVER_FLOOR)) bad = 1} exit bad}' || \
		{ echo "replica per-file coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover-lattice.out ./internal/lattice/
	@total=$$($(GO) tool cover -func=cover-lattice.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "internal/lattice coverage: $$total% (floor $(LATTICE_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(LATTICE_COVER_FLOOR))}" || \
		{ echo "coverage below floor"; exit 1; }
	$(GO) test -coverprofile=cover-principal.out ./internal/principal/
	@total=$$($(GO) tool cover -func=cover-principal.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "internal/principal coverage: $$total% (floor $(PRINCIPAL_COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(PRINCIPAL_COVER_FLOOR))}" || \
		{ echo "coverage below floor"; exit 1; }

# bench-smoke compiles and exercises the E1 benchmarks for a fixed tiny
# iteration count, plus one iteration of E10, E11 and the later
# families (the E16 churn among them, so the write path cannot bit-rot
# unnoticed); it validates the harness, not the numbers. The E1
# pattern is anchored: a bare 'E1' would also match E10–E19.
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkE1Check' -benchtime 100x .
	$(GO) test -run '^$$' -bench '^BenchmarkE1[01]' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'E16' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'E17' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'E13' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'E19' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'E20' -benchtime 1x .

# bench runs the full benchmark suite with allocation stats (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-churn runs the E16 write-path-scaling experiment alone and
# writes BENCH_E16.json (64-edit vs per-edit Apply bulk churn,
# sustained churn under readers, single registry transitions at
# check-allow scale).
bench-churn:
	$(GO) run ./cmd/benchtab -json . E16

# bench-resolve runs the E17 compiled-epoch resolve experiment alone
# and writes BENCH_E17.json (uncached compiled verdict vs spine walk vs
# warm cache hit, by path depth, plus the resolve-only split).
bench-resolve:
	$(GO) run ./cmd/benchtab -json . E17

# bench-replica runs the E19 replica-fleet experiment alone and writes
# BENCH_E19.json (aggregate replica mediation throughput at fleet sizes
# 1/2/4 over loopback TCP, revocation-barrier wall time after a
# 64-epoch burst, and snapshot-vs-delta transfer cost).
bench-replica:
	$(GO) run ./cmd/benchtab -json . E19

# bench-load runs the E20 scale experiment at its full advertised size —
# a 10^6-node tree under 10^5 principals — and writes BENCH_E20.json
# (map-children baseline vs compact layout bytes/node, footprint
# accounting, warm check, leaf edits, new principals and one replica
# bootstrap over loopback TCP). Remote CHECK serving is secbench's to
# measure (bench/run.sh). Takes minutes and several GB of heap; the CI
# smoke runs the same code at the small defaults via bench-smoke /
# `benchtab E20`.
bench-load:
	SECEXT_E20_NODES=1000000 SECEXT_E20_PRINCIPALS=100000 \
		$(GO) run ./cmd/benchtab -json . E20

# tables regenerates the EXPERIMENTS.md tables and writes structured
# BENCH_<ID>.json rows for machine consumers.
tables:
	$(GO) run ./cmd/benchtab -json .
