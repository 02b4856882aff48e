package names

import (
	"errors"
	"fmt"
	"testing"

	"secext/internal/acl"
)

// renameFixture builds /a and /b directories plus /a/x with a
// permissive ACL for "owner".
func renameFixture(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t)
	dirACL := acl.New(
		acl.Allow("owner", acl.Write|acl.List),
		acl.AllowEveryone(acl.List),
	)
	for _, d := range []string{"a", "b"} {
		if _, err := f.srv.BindUnchecked("/", BindSpec{
			Name: d, Kind: KindDirectory, ACL: dirACL, Class: f.bot,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.srv.BindUnchecked("/a", BindSpec{
		Name: "x", Kind: KindFile, Class: f.bot, Payload: "data",
		ACL: acl.New(acl.Allow("owner", acl.Delete|acl.Read)),
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRenameHappyPath(t *testing.T) {
	f := renameFixture(t)
	owner := subj("owner")
	if _, err := f.srv.Apply(owner, f.bot, Rename("/a/x", "/b", "y")); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := f.srv.ResolveUnchecked("/a/x"); !errors.Is(err, ErrNotFound) {
		t.Error("old name must be gone")
	}
	n, err := f.srv.ResolveUnchecked("/b/y")
	if err != nil {
		t.Fatalf("new name missing: %v", err)
	}
	if n.Payload() != "data" || n.Name() != "y" || n.Path() != "/b/y" {
		t.Errorf("moved node wrong: %s %v", n.Path(), n.Payload())
	}
}

func TestRenameChecks(t *testing.T) {
	f := renameFixture(t)
	other := subj("other")
	// No delete on the node.
	if _, err := f.srv.Apply(other, f.bot, Rename("/a/x", "/b", "y")); !errors.Is(err, ErrDenied) {
		t.Errorf("no delete: got %v", err)
	}
	// Delete but no write on the destination parent.
	if err := f.srv.SetACLUnchecked("/a/x", acl.New(acl.Allow("other", acl.Delete))); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.SetACLUnchecked("/a", acl.New(acl.Allow("other", acl.Write|acl.List), acl.AllowEveryone(acl.List))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(other, f.bot, Rename("/a/x", "/b", "y")); !errors.Is(err, ErrDenied) {
		t.Errorf("no destination write: got %v", err)
	}
}

func TestRenameStructuralErrors(t *testing.T) {
	f := renameFixture(t)
	owner := subj("owner")
	// Root cannot move.
	if _, err := f.srv.Apply(owner, f.bot, Rename("/", "/b", "r")); !errors.Is(err, ErrRoot) {
		t.Errorf("move root: got %v", err)
	}
	// Destination occupied.
	if _, err := f.srv.BindUnchecked("/b", BindSpec{Name: "x", Kind: KindFile, Class: f.bot}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(owner, f.bot, Rename("/a/x", "/b", "x")); !errors.Is(err, ErrExists) {
		t.Errorf("occupied destination: got %v", err)
	}
	// Bad component.
	if _, err := f.srv.Apply(owner, f.bot, Rename("/a/x", "/b", "a/b")); !errors.Is(err, ErrBadPath) {
		t.Errorf("bad component: got %v", err)
	}
	// Destination under a leaf.
	if _, err := f.srv.Apply(owner, f.bot, Rename("/a/x", "/b/x", "y")); !errors.Is(err, ErrLeaf) {
		t.Errorf("leaf destination: got %v", err)
	}
}

func TestRenameCycleRejected(t *testing.T) {
	f := newFixture(t)
	open := acl.New(acl.Allow("o", acl.Write|acl.Delete|acl.List), acl.AllowEveryone(acl.List))
	if _, err := f.srv.BindUnchecked("/", BindSpec{Name: "d1", Kind: KindDirectory, ACL: open, Class: f.bot}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.BindUnchecked("/d1", BindSpec{Name: "d2", Kind: KindDirectory, ACL: open, Class: f.bot}); err != nil {
		t.Fatal(err)
	}
	o := subj("o")
	if _, err := f.srv.Apply(o, f.bot, Rename("/d1", "/d1/d2", "loop")); !errors.Is(err, ErrBadPath) {
		t.Fatalf("cycle move: got %v", err)
	}
	// Moving a directory into itself directly.
	if _, err := f.srv.Apply(o, f.bot, Rename("/d1", "/d1", "self")); !errors.Is(err, ErrBadPath) {
		t.Fatalf("self move: got %v", err)
	}
}

func TestRenamePreservesProtection(t *testing.T) {
	// Moving a high-classified node between low directories must not
	// change its class or ACL. The mover runs at the directories'
	// class: deleting and re-binding the *name* are writes to the low
	// directories (a high subject attempting this would be denied as a
	// write-down — see TestRenameInMultilevelDir for the multilevel
	// alternative), while deleting the high *node* is a legal write-up.
	f := renameFixture(t)
	if err := f.srv.SetClassUnchecked("/a/x", f.org); err != nil {
		t.Fatal(err)
	}
	ownerACL := acl.New(acl.Allow("owner", acl.Delete|acl.Read))
	if err := f.srv.SetACLUnchecked("/a/x", ownerACL); err != nil {
		t.Fatal(err)
	}
	owner := subj("owner")
	if _, err := f.srv.Apply(owner, f.org, Rename("/a/x", "/b", "x")); !errors.Is(err, ErrDenied) {
		t.Fatalf("high subject moving name in low dirs must be a write-down: %v", err)
	}
	if _, err := f.srv.Apply(owner, f.bot, Rename("/a/x", "/b", "x")); err != nil {
		t.Fatalf("Rename at directory class: %v", err)
	}
	n, _ := f.srv.ResolveUnchecked("/b/x")
	if !n.Class().Equal(f.org) {
		t.Errorf("class changed: %s", n.Class())
	}
	got, _ := f.srv.ACLOf("/b/x")
	if got.String() != ownerACL.String() {
		t.Errorf("ACL changed: %s", got)
	}
}

func TestRenameInMultilevelDir(t *testing.T) {
	f := newFixture(t)
	shared := acl.New(acl.AllowEveryone(acl.List | acl.Write))
	if _, err := f.srv.BindUnchecked("/", BindSpec{
		Name: "tmp", Kind: KindDirectory, ACL: shared, Class: f.bot, Multilevel: true,
	}); err != nil {
		t.Fatal(err)
	}
	bob := subj("bob")
	if _, err := f.srv.Apply(bob, f.org, Bind("/tmp", BindSpec{
		Name: "f", Kind: KindFile, Class: f.org,
		ACL: acl.New(acl.Allow("bob", acl.Delete)),
	})); err != nil {
		t.Fatal(err)
	}
	// bob renames his own entry inside the multilevel dir although the
	// container is below his class.
	if _, err := f.srv.Apply(bob, f.org, Rename("/tmp/f", "/tmp", "g")); err != nil {
		t.Fatalf("multilevel rename: %v", err)
	}
	if _, err := f.srv.ResolveUnchecked("/tmp/g"); err != nil {
		t.Error("renamed entry missing")
	}
}

// TestRenameWideDirectory moves a directory of 10^3+ children and
// re-checks the full tree invariants: every child's stored path is
// rewritten under the new name, derived entry names still equal the
// path tails, and every sibling list stays strictly sorted — the
// rename changes the moved entry's sort position in both parents.
func TestRenameWideDirectory(t *testing.T) {
	f := renameFixture(t)
	const kids = 1200
	specs := make([]SubtreeSpec, 0, 1+kids)
	specs = append(specs, SubtreeSpec{Path: "wide", Kind: KindDirectory,
		ACL: acl.New(acl.Allow("owner", acl.AllModes), acl.AllowEveryone(acl.List)), Class: f.bot})
	for k := 0; k < kids; k++ {
		specs = append(specs, SubtreeSpec{
			Path: fmt.Sprintf("wide/k%04d", k), Kind: KindFile, Payload: k,
			ACL: acl.New(acl.Allow("owner", acl.Read)), Class: f.bot,
		})
	}
	if _, _, err := f.srv.BindSubtreeUnchecked("/a", specs); err != nil {
		t.Fatal(err)
	}
	// "0-first" sorts before every existing sibling of /b; the old name
	// "wide" sorted last in /a — both insertion paths get exercised.
	if _, err := f.srv.Apply(subj("owner"), f.bot, Rename("/a/wide", "/b", "0-first")); err != nil {
		t.Fatalf("Rename wide: %v", err)
	}
	for _, k := range []int{0, 1, kids / 2, kids - 1} {
		p := fmt.Sprintf("/b/0-first/k%04d", k)
		n, err := f.srv.ResolveUnchecked(p)
		if err != nil {
			t.Fatalf("child %s missing after rename: %v", p, err)
		}
		if n.Payload() != k || n.Path() != p {
			t.Errorf("child %s carries path %q payload %v", p, n.Path(), n.Payload())
		}
	}
	if _, err := f.srv.ResolveUnchecked("/a/wide"); !errors.Is(err, ErrNotFound) {
		t.Error("old wide directory still resolves")
	}
	checkTree(t, f, 0, 0)
}

// TestRenameDeepChain renames the head of a deep directory chain:
// every descendant's canonical path must be rewritten through the full
// depth, and the subtree must stay reachable at each level.
func TestRenameDeepChain(t *testing.T) {
	f := renameFixture(t)
	const depth = 64
	specs := []SubtreeSpec{{Path: "deep", Kind: KindDirectory,
		ACL: acl.New(acl.Allow("owner", acl.AllModes), acl.AllowEveryone(acl.List)), Class: f.bot}}
	rel := "deep"
	for d := 0; d < depth; d++ {
		rel += "/c"
		specs = append(specs, SubtreeSpec{Path: rel, Kind: KindDirectory,
			ACL: acl.New(acl.Allow("owner", acl.AllModes)), Class: f.bot})
	}
	if _, _, err := f.srv.BindSubtreeUnchecked("/a", specs); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(subj("owner"), f.bot, Rename("/a/deep", "/b", "moved")); err != nil {
		t.Fatalf("Rename deep: %v", err)
	}
	want := "/b/moved"
	for d := 0; d <= depth; d++ {
		n, err := f.srv.ResolveUnchecked(want)
		if err != nil {
			t.Fatalf("depth %d: %s missing: %v", d, want, err)
		}
		if n.Path() != want {
			t.Errorf("depth %d: stored path %q, want %q", d, n.Path(), want)
		}
		want += "/c"
	}
	checkTree(t, f, 0, 0)
}
