package names

import (
	"fmt"
	"reflect"
	"testing"

	"secext/internal/acl"
	"secext/internal/principal"
)

// wideFixture is a compiled server over /t/dNN/fNNN: dirs directories
// of leaves leaves each. Leaf ACLs cycle through pool, a set of
// group-granting (registry-sensitive) ACLs; directories grant List to
// everyone, so no membership edit moves a visibility chain.
type wideFixture struct {
	*compiledFixture
	pool []*acl.ACL
}

func newWideFixture(t *testing.T, dirs, leaves, pool int) *wideFixture {
	t.Helper()
	cf := newCompiledFixture(t)
	open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
	wf := &wideFixture{compiledFixture: cf}
	for k := 0; k < pool; k++ {
		wf.pool = append(wf.pool, acl.New(
			acl.Allow("root", acl.AllModes),
			acl.AllowGroup("ops", acl.Read),
			acl.Allow(fmt.Sprintf("u%d", k), acl.Write), // unresolved: sensitive either way
		))
	}
	specs := []SubtreeSpec{{Path: "t", Kind: KindDirectory, ACL: open, Class: cf.bot}}
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("t/d%02d", d)
		specs = append(specs, SubtreeSpec{Path: dir, Kind: KindDirectory, ACL: open, Class: cf.bot})
		for l := 0; l < leaves; l++ {
			specs = append(specs, SubtreeSpec{
				Path: fmt.Sprintf("%s/f%03d", dir, l), Kind: KindFile,
				ACL: wf.pool[(d*leaves+l)%pool], Class: cf.bot,
			})
		}
	}
	if _, _, err := cf.srv.BindSubtreeUnchecked("/", specs); err != nil {
		t.Fatal(err)
	}
	return wf
}

// sharedShards counts the shards of next's index that are the very
// maps of prev's.
func sharedShards(prev, next *pathIndex) int {
	if len(prev.shards) != len(next.shards) {
		return 0
	}
	n := 0
	for i := range prev.shards {
		if reflect.ValueOf(prev.shards[i]).UnsafePointer() == reflect.ValueOf(next.shards[i]).UnsafePointer() {
			n++
		}
	}
	return n
}

// TestLeafEditSharesIndexShards: a single-leaf ACL edit on a 20k-node
// tree clones only the shards its spine (root, /t, the directory, the
// leaf) lands in; every other shard is the parent's map.
func TestLeafEditSharesIndexShards(t *testing.T) {
	wf := newWideFixture(t, 80, 250, 16)
	srv := wf.srv
	prev := srv.Current()
	if prev.compiled.index.n < 20000 {
		t.Fatalf("fixture has %d entries", prev.compiled.index.n)
	}
	shards := len(prev.compiled.index.shards)
	if shards < 64 {
		t.Fatalf("%d shards for %d entries", shards, prev.compiled.index.n)
	}
	if err := srv.SetACLUnchecked("/t/d07/f123", wf.pool[3]); err != nil {
		t.Fatal(err)
	}
	next := srv.Current()
	if next.Root() == prev.Root() {
		t.Fatal("edit published no new tree")
	}
	const spine = 4 // "/", /t, /t/d07, /t/d07/f123
	if cloned := shards - sharedShards(prev.compiled.index, next.compiled.index); cloned > spine {
		t.Fatalf("leaf edit cloned %d of %d shards, want at most %d", cloned, shards, spine)
	}
	assertMatchesFullRebuild(t, next)
}

// TestSharedACLSharesSummary: within one epoch every node with the
// same canonical ACL is judged by the same *acl.Summary, and the view
// holds one summary per distinct ACL.
func TestSharedACLSharesSummary(t *testing.T) {
	wf := newWideFixture(t, 4, 50, 7)
	// Churn so the view is incremental, not a fresh build.
	if err := wf.srv.SetACLUnchecked("/t/d01/f010", wf.pool[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.reg.Apply(principal.AddMember("ops", "bob")); err != nil {
		t.Fatal(err)
	}
	c := wf.srv.Current().compiled
	byACL := make(map[*acl.ACL]*acl.Summary)
	summaries := make(map[*acl.Summary]bool)
	c.index.each(func(p string, e *centry) {
		s := c.sumOf(e)
		summaries[s] = true
		if prev, ok := byACL[e.node.acl]; ok && prev != s {
			t.Errorf("%s: ACL shared with another node but judged by a different summary", p)
		}
		byACL[e.node.acl] = s
	})
	if len(summaries) != len(byACL) {
		t.Fatalf("%d summaries for %d distinct ACLs", len(summaries), len(byACL))
	}
}

// TestMembershipToggleCompilesPerDistinctACL: a membership toggle over
// N sensitive nodes and K distinct sensitive ACLs compiles at most K
// summaries and shares the whole index with the parent.
func TestMembershipToggleCompilesPerDistinctACL(t *testing.T) {
	const k = 9
	wf := newWideFixture(t, 10, 200, k)
	srv := wf.srv
	prev := srv.Current()
	if sens := prev.compiled.sensitiveEntries(); sens < 2000 {
		t.Fatalf("%d sensitive entries", sens)
	}
	before := srv.CompiledStats()
	if _, err := wf.reg.Apply(principal.AddMember("ops", "carol")); err != nil {
		t.Fatal(err)
	}
	after := srv.CompiledStats()
	if got := after.Summaries - before.Summaries; got > k {
		t.Fatalf("toggle compiled %d summaries, want at most %d", got, k)
	}
	if after.Incremental != before.Incremental+1 {
		t.Fatalf("toggle was not one incremental build: %+v", after)
	}
	next := srv.Current()
	if next.compiled.index != prev.compiled.index || next.compiled.tab != prev.compiled.tab {
		t.Fatal("registry-only toggle rebuilt the index or slot table")
	}
	if g, ok := next.CompiledGrants("/t/d03/f017", "carol"); !ok || g&acl.Read == 0 {
		t.Fatalf("carol's new ops membership not compiled: %v %v", g, ok)
	}
	assertMatchesFullRebuild(t, next)
}

// TestToggleMovingListSetRewalks: when a membership edit changes the
// List set of an ACL an interior node uses, the registry patch falls
// back to the walk; the descendants' visibility follows, and every
// entry the edit did not move keeps its index shard shared.
func TestToggleMovingListSetRewalks(t *testing.T) {
	wf := newWideFixture(t, 12, 100, 4)
	srv := wf.srv
	gated := acl.New(acl.Allow("root", acl.AllModes), acl.AllowGroup("eng", acl.List))
	specs := []SubtreeSpec{
		{Path: "gate", Kind: KindDirectory, ACL: gated, Class: wf.bot},
		{Path: "gate/a", Kind: KindFile, ACL: wf.pool[0], Class: wf.bot},
		{Path: "gate/b", Kind: KindFile, ACL: wf.pool[1], Class: wf.bot},
	}
	if _, _, err := srv.BindSubtreeUnchecked("/t", specs); err != nil {
		t.Fatal(err)
	}
	if _, err := wf.reg.Apply(principal.AddMember("ops", "bob")); err != nil {
		t.Fatal(err)
	}
	prev := srv.Current()
	if _, err := srv.Resolve(subj("bob"), wf.bot, "/t/gate/a"); err == nil {
		t.Fatal("bob resolves under a directory listing only eng")
	}
	if _, err := wf.reg.Apply(principal.AddMember("eng", "bob")); err != nil {
		t.Fatal(err)
	}
	next := srv.Current()
	if n, decided := next.CompiledAllows(subj("bob"), wf.bot, "/t/gate/a", acl.Read); !decided || n == nil {
		t.Fatal("bob's new List grant did not reach the compiled visibility chain")
	}
	const moved = 3 // /t/gate and its two leaves
	shards := len(next.compiled.index.shards)
	if cloned := shards - sharedShards(prev.compiled.index, next.compiled.index); cloned == 0 || cloned > moved || shards < 8 {
		t.Fatalf("re-walk cloned %d of %d shards, want 1..%d", cloned, shards, moved)
	}
	assertMatchesFullRebuild(t, next)
	assertCompiledEquiv(t, next, []fakeSubject{subj("root"), subj("bob"), subj("carol")}, wf.classes()[:1])
}

// TestPathIndexReshards: the shard count follows the entry count up
// under bulk binds and back down under bulk unbinds, and the index
// stays exact both ways.
func TestPathIndexReshards(t *testing.T) {
	wf := newWideFixture(t, 40, 100, 5)
	srv := wf.srv
	grown := srv.Current().compiled.index
	if len(grown.shards) < 8 || grown.n/len(grown.shards) > 4*indexShardLoad {
		t.Fatalf("%d entries over %d shards", grown.n, len(grown.shards))
	}
	for d := 0; d < 40; d++ {
		dir := fmt.Sprintf("/t/d%02d", d)
		var edits []Edit
		for l := 0; l < 100; l++ {
			edits = append(edits, Unbind(fmt.Sprintf("%s/f%03d", dir, l)))
		}
		if _, err := srv.Apply(nil, wf.bot, append(edits, Unbind(dir))...); err != nil {
			t.Fatal(err)
		}
	}
	shrunk := srv.Current()
	if got := len(shrunk.compiled.index.shards); got != 1 {
		t.Fatalf("%d entries left over %d shards", shrunk.compiled.index.n, got)
	}
	assertMatchesFullRebuild(t, shrunk)
	if st := srv.CompiledStats(); st.Entries != shrunk.compiled.index.n || len(shrunk.compiled.tab.ids) > 2 {
		t.Fatalf("stats %+v, %d live ACL slots after the unbinds", st, len(shrunk.compiled.tab.ids))
	}
}

// TestDiffEpochsACLOnlyOmitsRegistry: an ACL-only delta carries no
// principals or groups; a membership delta carries the changed group.
func TestDiffEpochsACLOnlyOmitsRegistry(t *testing.T) {
	wf := newWideFixture(t, 2, 10, 3)
	srv := wf.srv
	prev := srv.Current()
	if err := srv.SetACLUnchecked("/t/d01/f004", wf.pool[0]); err != nil {
		t.Fatal(err)
	}
	next := srv.Current()
	d, err := DiffEpochs(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Principals) != 0 || len(d.Groups) != 0 {
		t.Fatalf("ACL-only delta carries registry state: %+v", d)
	}
	if len(d.Upserts) == 0 {
		t.Fatal("ACL-only delta lost the upsert")
	}
	if _, err := wf.reg.Apply(principal.AddMember("eng", "carol")); err != nil {
		t.Fatal(err)
	}
	d, err = DiffEpochs(next, srv.Current())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 1 || d.Groups[0].Name != "eng" || len(d.Upserts) != 0 {
		t.Fatalf("membership delta = %+v", d)
	}
}
