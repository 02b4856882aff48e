package names

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"secext/internal/acl"
	"secext/internal/decision"
	"secext/internal/lattice"
	"secext/internal/principal"
)

// TestEpochBundlesAllShards: one Current() call pins all four policy
// shards, and each typed transition republishes the epoch with the
// changed shard swapped and the other three carried over.
func TestEpochBundlesAllShards(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	reg := principal.NewRegistry(f.lat)
	if _, err := reg.Apply(principal.AddPrincipal("alice", f.bot)); err != nil {
		t.Fatal(err)
	}
	f.srv.AttachRegistry(reg)

	ep0 := f.srv.Current()
	if ep0.Lattice() == nil || ep0.Registry() == nil || ep0.Stack() == nil || ep0.Root() == nil {
		t.Fatalf("attached epoch missing a shard: %+v", ep0)
	}
	tr0 := f.srv.Stats()

	// Lattice definition → lattice transition, same tree and registry.
	if _, err := f.lat.DefineLevel("ultra"); err != nil {
		t.Fatal(err)
	}
	ep1 := f.srv.Current()
	if ep1.Version() != ep0.Version()+1 {
		t.Fatalf("lattice define: version %d -> %d", ep0.Version(), ep1.Version())
	}
	if ep1.Lattice() == ep0.Lattice() {
		t.Fatal("lattice define did not swap the frozen lattice")
	}
	if ep1.Root() != ep0.Root() || ep1.Registry() != ep0.Registry() || ep1.Stack() != ep0.Stack() {
		t.Fatal("lattice define disturbed an unrelated shard")
	}
	if _, err := ep1.Lattice().LevelByName("ultra"); err != nil {
		t.Fatalf("new epoch's lattice missing the new level: %v", err)
	}
	if _, err := ep0.Lattice().LevelByName("ultra"); err == nil {
		t.Fatal("pinned old epoch sees the new level")
	}

	// Registry mutation → registry transition.
	if _, err := reg.Apply(principal.AddGroup("ops")); err != nil {
		t.Fatal(err)
	}
	ep2 := f.srv.Current()
	if ep2.Registry() == ep1.Registry() || ep2.Root() != ep1.Root() || ep2.Lattice() != ep1.Lattice() {
		t.Fatal("registry mutation transitioned the wrong shard")
	}
	if !ep2.Registry().HasGroup("ops") || ep1.Registry().HasGroup("ops") {
		t.Fatal("group visible in the wrong epoch")
	}

	// Tree mutation → name transition.
	if err := f.srv.SetACLUnchecked("/svc/fs/read", acl.New(acl.Allow("alice", acl.Read))); err != nil {
		t.Fatal(err)
	}
	ep3 := f.srv.Current()
	if ep3.Root() == ep2.Root() || ep3.Registry() != ep2.Registry() || ep3.Lattice() != ep2.Lattice() {
		t.Fatal("tree mutation transitioned the wrong shard")
	}

	tr := f.srv.Stats()
	if tr.LatticeTransitions != tr0.LatticeTransitions+1 || tr.RegistryTransitions != tr0.RegistryTransitions+1 || tr.NameTransitions != tr0.NameTransitions+1 {
		t.Fatalf("transition counters: before %+v after %+v", tr0, tr)
	}
	if got := f.srv.Publishes(); got < 3 {
		t.Fatalf("publishes = %d, want >= 3", got)
	}
}

// TestEpochReadPathAcquiresNoMutex is the acceptance-criterion
// assertion for the lock-free read side: with mutex profiling capturing
// EVERY contention event, a heavy concurrent read-only workload over
// both the cached and the uncached decision paths must leave zero
// contention samples in any function of this module. A single
// sync.Mutex or RWMutex anywhere on the mediation read path — server,
// cache, guards, frozen lattice, frozen registry — would contend under
// 8 goroutines and show up here with its stack.
func TestEpochReadPathAcquiresNoMutex(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	f := newFixture(t)
	f.mkTree(t)
	reg := principal.NewRegistry(f.lat)
	if _, err := reg.Apply(principal.AddPrincipal("alice", f.bot)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddGroup("ops")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Apply(principal.AddMember("ops", "alice")); err != nil {
		t.Fatal(err)
	}
	f.srv.AttachRegistry(reg)
	// A group entry forces the DAC guard through the epoch's pinned
	// membership relation, so the frozen registry is on the hot path.
	grant := acl.New(acl.AllowGroup("ops", acl.Read), acl.AllowEveryone(acl.List))
	if err := f.srv.SetACLUnchecked("/svc/fs/read", grant); err != nil {
		t.Fatal(err)
	}
	f.srv.SetDecisionCache(decision.NewCache(0))
	alice := subj("alice")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// Cached fast path.
				if _, _, err := f.srv.CheckAccessAt(alice, f.bot, "/svc/fs/read", acl.Read); err != nil {
					t.Errorf("cached check: %v", err)
					return
				}
				// Uncached full path against an explicitly pinned epoch.
				ep := f.srv.Current()
				if _, err := f.srv.CheckAccessIn(ep, alice, f.bot, "/svc/fs/read", acl.Read); err != nil {
					t.Errorf("pinned check: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	n, _ := runtime.MutexProfile(nil)
	recs := make([]runtime.BlockProfileRecord, n+64)
	n, _ = runtime.MutexProfile(recs)
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			// Any contended mutex inside this module's non-test code is
			// a read-path lock the epoch design forbids.
			if strings.HasPrefix(fr.Function, "secext/") && !strings.Contains(fr.File, "_test.go") {
				t.Errorf("mutex contention on the read path: %s (%s:%d)", fr.Function, fr.File, fr.Line)
			}
			if !more {
				break
			}
		}
	}
}

// FuzzEpochTransitions drives a random interleaving of mutations across
// all four policy shards from concurrent goroutines while a reader pins
// epochs, and asserts every pinned epoch is internally consistent
// (Epoch.Consistent) with a monotone version. A publication that paired
// a new tree with a stale lattice or registry — or tore half a
// transition — fails the consistency walk. The op vocabulary mixes
// single-edit and multi-edit Applies on both shards (some failing
// part-way), bulk subtree binds, and direct Publish* calls, so
// hook-driven and direct publications interleave; the end-state checks
// catch lost mutations and a registry closure that diverges from a
// naive walk of the member lists.
func FuzzEpochTransitions(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 7, 7, 2, 2, 8, 8})
	f.Add([]byte("epoch transitions"))
	// Wide-directory and deep-rename ops, interleaved with plain churn.
	f.Add([]byte{12, 13, 0, 12, 2, 13, 5, 12, 13, 7})
	// Multi-edit Applies, half of them failing on their last edit.
	f.Add([]byte{14, 29, 44, 59, 74, 89, 104, 119, 134, 2, 14, 149, 164, 8, 14})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		lat, err := lattice.NewWithUniverse([]string{"low", "high"}, []string{"a"})
		if err != nil {
			t.Fatal(err)
		}
		bot, _ := lat.Bottom()
		srv := NewServer(lat, acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List)), bot)
		reg := principal.NewRegistry(lat)
		for _, p := range []string{"root", "p0", "p1", "p2"} {
			if _, err := reg.Apply(principal.AddPrincipal(p, bot)); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range []string{"g0", "g1"} {
			if _, err := reg.Apply(principal.AddGroup(g)); err != nil {
				t.Fatal(err)
			}
		}
		srv.AttachRegistry(reg)
		// Per-goroutine home directories so mutators never trip over each
		// other structurally.
		open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
		const mutators = 3
		for g := 0; g < mutators; g++ {
			if _, err := srv.BindUnchecked("/", BindSpec{Name: fmt.Sprintf("d%d", g), Kind: KindDirectory, ACL: open, Class: bot}); err != nil {
				t.Fatal(err)
			}
		}

		var wg sync.WaitGroup
		for g := 0; g < mutators; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				home := fmt.Sprintf("/d%d", g)
				for i := g; i < len(ops); i += mutators {
					switch ops[i] % 15 {
					case 0:
						srv.Apply(nil, lattice.Class{}, Bind(home, BindSpec{
							Name: fmt.Sprintf("n%d", i), Kind: KindFile,
							ACL: acl.New(acl.Allow("p0", acl.Read), acl.AllowGroup("g0", acl.List)), Class: bot,
						}))
					case 1:
						srv.Apply(nil, lattice.Class{}, Unbind(fmt.Sprintf("%s/n%d", home, i-8)))
					case 2:
						srv.Apply(nil, lattice.Class{}, SetACL(home, acl.New(
							acl.Allow(fmt.Sprintf("p%d", i%3), acl.AllModes),
							acl.AllowGroup(fmt.Sprintf("g%d", i%2), acl.Read))))
					case 3:
						lat.DefineLevel(fmt.Sprintf("lv-%d-%d", g, i))
					case 4:
						lat.DefineCategory(fmt.Sprintf("cat-%d-%d", g, i))
					case 5:
						reg.Apply(principal.AddMember(fmt.Sprintf("g%d", i%2), fmt.Sprintf("p%d", i%3)))
					case 6:
						reg.Apply(principal.RemoveMember(fmt.Sprintf("g%d", i%2), fmt.Sprintf("p%d", i%3)))
					case 7:
						srv.PublishStack(srv.Pipeline().Current())
					case 8:
						// Bulk membership: one freeze, one publication.
						reg.Apply(memberEdits(principal.AddMember, fmt.Sprintf("g%d", i%2), "p0", "p1", "p2")...)
					case 9:
						reg.Apply(memberEdits(principal.RemoveMember, fmt.Sprintf("g%d", i%2), "p0", "p1")...)
					case 10:
						// Batched ACL install over the mutator's own home.
						srv.Apply(nil, lattice.Class{}, SetACL(home, acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))))
					case 11:
						// Direct publish of the current frozen registry,
						// interleaved with hook-driven publications.
						srv.PublishRegistry(reg.Freeze())
					case 12:
						// Wide directory: 10^3+ children land in one bulk
						// publication, stressing the sorted-slice layout's
						// append fast path and the binary-searched lookups
						// concurrent readers run against it.
						wname := fmt.Sprintf("w%d", i)
						specs := make([]SubtreeSpec, 0, 1+1024)
						specs = append(specs, SubtreeSpec{Path: wname, Kind: KindDirectory, ACL: open, Class: bot})
						for k := 0; k < 1024; k++ {
							specs = append(specs, SubtreeSpec{
								Path: fmt.Sprintf("%s/k%04d", wname, k), Kind: KindFile, ACL: open, Class: bot,
							})
						}
						srv.BindSubtreeUnchecked(home, specs)
					case 13:
						// Deep chain, then rename its head: every
						// descendant's stored path is rewritten, and the
						// entry's sort position in home changes — the
						// derived-name invariant (entry name == path tail)
						// must hold through both.
						base := fmt.Sprintf("deep%d", i)
						specs := []SubtreeSpec{{Path: base, Kind: KindDirectory, ACL: open, Class: bot}}
						rel := base
						for d := 0; d < 24; d++ {
							rel += "/c"
							specs = append(specs, SubtreeSpec{Path: rel, Kind: KindDirectory, ACL: open, Class: bot})
						}
						if _, _, err := srv.BindSubtreeUnchecked(home, specs); err == nil {
							srv.Apply(subj("root"), bot, Rename(home+"/"+base, home, fmt.Sprintf("a-moved%d", i)))
						}
					case 14:
						// A 1–8-edit Apply in the mutator's home — binds,
						// each followed by an ACL edit on the new node —
						// checked or unchecked; half the time its last edit
						// unbinds a missing name. All-or-nothing: after the
						// call either every bind is visible or none is.
						k := 1 + int(ops[i]/15)%8
						fails := (i/mutators)%2 == 1
						good := k
						if fails {
							good--
						}
						var sub acl.Subject
						if i%2 == 0 {
							sub = subj("root")
						}
						var edits []Edit
						var bound []string
						for len(edits) < good {
							name := fmt.Sprintf("m%d-%d", i, len(edits))
							bound = append(bound, home+"/"+name)
							edits = append(edits, Bind(home, BindSpec{Name: name, Kind: KindFile, ACL: open, Class: bot}))
							if len(edits) < good {
								edits = append(edits, SetACL(home+"/"+name, open))
							}
						}
						if fails {
							edits = append(edits, Unbind(home+"/missing"))
						}
						_, err := srv.Apply(sub, bot, edits...)
						if fails && err == nil {
							t.Errorf("Apply ending in a missing unbind succeeded")
						}
						for _, path := range bound {
							_, rerr := resolveIn(srv.Current(), nil, lattice.Class{}, path, false)
							if (err == nil) != (rerr == nil) {
								t.Errorf("Apply err=%v but %s resolves with err=%v", err, path, rerr)
							}
						}
					}
				}
			}(g)
		}

		// Reader: every pinned epoch must be internally consistent and
		// versions must never go backwards.
		var pinned []*Epoch
		last := uint64(0)
		for i := 0; i < 4*len(ops); i++ {
			ep := srv.Current()
			if ep.Version() < last {
				t.Errorf("version went backwards: %d after %d", ep.Version(), last)
				break
			}
			last = ep.Version()
			if ok, path, why := ep.Consistent(); !ok {
				t.Errorf("pinned epoch v%d inconsistent at %s: %s", ep.Version(), path, why)
				break
			}
			if i%16 == 0 {
				pinned = append(pinned, ep)
			}
		}
		wg.Wait()

		// Pinned epochs stay consistent after the dust settles — they are
		// immutable, so the concurrent mutations cannot have touched them.
		// Each pinned compiled epoch must also honor the compiled-vs-walk
		// equivalence contract: index ≡ tree, every entry ≡ a full
		// rebuild's, summary verdict ≡ ACL entry iteration, fast check ≡
		// spine walk (assertCompiledEquiv).
		fuzzSubs := []fakeSubject{subj("root"), subj("p0"), subj("p1"), subj("p2")}
		for _, ep := range pinned {
			if ok, path, why := ep.Consistent(); !ok {
				t.Errorf("old epoch v%d mutated after pin: %s: %s", ep.Version(), path, why)
			}
			if ep.Compiled() {
				assertCompiledEquiv(t, ep, fuzzSubs, []lattice.Class{bot})
			}
		}
		final := srv.Current()
		if ok, path, why := final.Consistent(); !ok {
			t.Errorf("final epoch inconsistent at %s: %s", path, why)
		}
		if final.Compiled() {
			assertCompiledEquiv(t, final, fuzzSubs, []lattice.Class{bot})
		} else {
			t.Error("final epoch carries no compiled view despite an attached registry")
		}
		// No lost publications: once every mutator has returned, the
		// published epoch must carry each shard's latest frozen state —
		// a batch that was staged but never flushed would strand them.
		if final.Lattice() != lat.Freeze() {
			t.Errorf("final epoch lattice v%d, lattice at v%d", final.Lattice().Version(), lat.Version())
		}
		if final.Registry() != reg.Freeze() {
			t.Errorf("final epoch registry v%d, registry at v%d", final.Registry().Version(), reg.Version())
		}
		// A mirror bootstrapped from the final epoch's snapshot frames
		// equals it and decides every sampled check the same way, denial
		// text included.
		m := newMirror(t, srv)
		if diff := wireEquivalent(final, m.srv.Current()); diff != "" {
			t.Errorf("mirror bootstrapped from the frames differs: %s", diff)
		}
		if diff := verdictsAgree(final, m.srv.Current()); diff != "" {
			t.Errorf("mirror bootstrapped from the frames decides differently: %s", diff)
		}
		// The closure the epoch carries, derived version by version,
		// must agree with a naive walk of the direct-member lists for
		// every principal × group pair.
		fr := final.Registry()
		for _, p := range fr.Principals() {
			for _, g := range fr.Groups() {
				if got, want := fr.IsMember(p, g), naiveMember(fr, p, g); got != want {
					t.Errorf("closure diverged: %s in %s: derived=%v naive=%v", p, g, got, want)
				}
			}
		}
	})
}

// naiveMember decides transitive membership by a depth-first walk of
// the direct-member lists, the reference the registry's precomputed
// closure is checked against.
func naiveMember(f *principal.Frozen, p, g string) bool {
	members, err := f.Members(g)
	if err != nil {
		return false
	}
	for _, m := range members {
		if m == p || strings.HasPrefix(m, "@") && naiveMember(f, p, m[1:]) {
			return true
		}
	}
	return false
}
