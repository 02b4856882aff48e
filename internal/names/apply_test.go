package names

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// TestApplyMixedEditsOneEpoch: bind a node, set its ACL, then rename it
// — checked and unchecked — lands in one epoch: one publication, and
// every edit is visible at the returned version.
func TestApplyMixedEditsOneEpoch(t *testing.T) {
	for _, checked := range []bool{false, true} {
		f := newFixture(t)
		f.mkTree(t)
		var sub acl.Subject
		if checked {
			sub = f.root
		}
		grant := acl.New(acl.Allow("root", acl.AllModes), acl.Allow("alice", acl.Read))
		pubs := f.srv.Publishes()
		v, err := f.srv.Apply(sub, f.bot,
			Bind("/svc/fs", BindSpec{Name: "new", Kind: KindFile, ACL: acl.New(acl.Allow("root", acl.AllModes)), Class: f.bot}),
			SetACL("/svc/fs/new", grant),
			Rename("/svc/fs/new", "/svc", "moved"),
		)
		if err != nil {
			t.Fatalf("checked=%v: %v", checked, err)
		}
		if got := f.srv.Publishes() - pubs; got != 1 {
			t.Fatalf("checked=%v: %d publications, want 1", checked, got)
		}
		ep := f.srv.Current()
		if v != ep.Version() {
			t.Fatalf("checked=%v: returned v%d, published v%d", checked, v, ep.Version())
		}
		n, err := resolveIn(ep, nil, lattice.Class{}, "/svc/moved", false)
		if err != nil || !n.acl.Check(subj("alice"), acl.Read) {
			t.Fatalf("checked=%v: moved node missing or without its new ACL: %v", checked, err)
		}
		if _, err := resolveIn(ep, nil, lattice.Class{}, "/svc/fs/new", false); !errors.Is(err, ErrNotFound) {
			t.Fatalf("checked=%v: old name still bound: %v", checked, err)
		}
		if ok, path, why := ep.Consistent(); !ok {
			t.Fatalf("checked=%v: epoch inconsistent at %s: %s", checked, path, why)
		}
	}
}

// TestApplyFailureIsAtomic: when the k-th edit fails — missing path,
// denial, cycle, occupied name — nothing lands: version, publications
// and tree are untouched, and the error names the failing edit.
func TestApplyFailureIsAtomic(t *testing.T) {
	open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
	cases := []struct {
		name    string
		checked bool
		bad     Edit
		want    error
	}{
		{"missing path", false, Unbind("/svc/nope"), ErrNotFound},
		{"denial", true, SetACL("/locked", open), ErrDenied},
		{"cycle", false, Rename("/svc", "/svc/fs/a", "loop"), ErrBadPath},
		{"occupied name", true, Rename("/svc/fs/read", "/svc/fs", "a"), ErrExists},
		{"non-empty unbind", false, Unbind("/svc/fs"), ErrNotEmpty},
		{"foreign class", false, SetClass("/svc/fs/a", lattice.Class{}), ErrBadPath},
	}
	for _, tc := range cases {
		f := newFixture(t)
		f.mkTree(t)
		if _, err := f.srv.BindUnchecked("/", BindSpec{Name: "locked", Kind: KindDirectory, ACL: acl.New(acl.AllowEveryone(acl.List)), Class: f.bot}); err != nil {
			t.Fatal(err)
		}
		var sub acl.Subject
		if tc.checked {
			sub = f.root
		}
		ok := []Edit{
			Bind("/svc/fs", BindSpec{Name: "a", Kind: KindDirectory, ACL: open, Class: f.bot}),
			SetACL("/svc/fs/a", open),
		}
		edits := append(append([]Edit(nil), ok...), tc.bad)
		ep0, pubs := f.srv.Current(), f.srv.Publishes()
		v, err := f.srv.Apply(sub, f.bot, edits...)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		var ee *EditError
		if !errors.As(err, &ee) || ee.Index != len(ok) || ee.Edit.Op() != tc.bad.Op() || ee.Error() != ee.Err.Error() {
			t.Fatalf("%s: error does not name edit %d: %#v", tc.name, len(ok), err)
		}
		if v != 0 || f.srv.Publishes() != pubs || f.srv.Current() != ep0 {
			t.Fatalf("%s: failed Apply published (v=%d)", tc.name, v)
		}
		if _, err := f.srv.ResolveUnchecked("/svc/fs/a"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: an earlier edit of the failed call landed", tc.name)
		}
	}
}

// TestApplyDeniedErrors: checked edits fail with the DeniedError Path,
// Op and Why the per-operation methods Apply replaced reported.
func TestApplyDeniedErrors(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	rootOnly := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
	for _, b := range []struct {
		name  string
		class lattice.Class
		ml    bool
	}{{"ml", f.bot, true}, {"hi", f.org, false}} {
		if _, err := f.srv.BindUnchecked("/svc", BindSpec{Name: b.name, Kind: KindDirectory, ACL: rootOnly, Class: b.class, Multilevel: b.ml}); err != nil {
			t.Fatal(err)
		}
	}
	mallory := subj("mallory")
	cases := []struct {
		name      string
		sub       fakeSubject
		class     lattice.Class
		edit      Edit
		path, op  string
		whyPrefix string
	}{
		{"bind without write", mallory, f.bot, Bind("/svc/fs", BindSpec{Name: "x", Kind: KindFile, Class: f.bot}), "/svc/fs", acl.Write.String(), "acl"},
		{"bind below creator", f.root, f.org, Bind("/svc/ml", BindSpec{Name: "x", Kind: KindFile, Class: f.bot}), "/svc/ml/x", "bind", "mac"},
		{"unbind without delete", mallory, f.bot, Unbind("/svc/fs/read"), "/svc/fs/read", acl.Delete.String(), "acl"},
		{"rename without delete", mallory, f.bot, Rename("/svc/fs/read", "/svc", "r"), "/svc/fs/read", acl.Delete.String(), "acl"},
		{"set-acl without administrate", mallory, f.bot, SetACL("/svc/fs/read", acl.New()), "/svc/fs/read", acl.Administrate.String(), "acl"},
		{"set-payload without administrate", mallory, f.bot, SetPayload("/svc/fs/read", "x"), "/svc/fs/read", acl.Administrate.String(), "acl"},
		{"relabel down", f.root, f.org, SetClass("/svc/hi", f.bot), "/svc/hi", "set-class", "mac"},
	}
	for _, tc := range cases {
		_, err := f.srv.Apply(tc.sub, tc.class, tc.edit)
		var de *DeniedError
		if !errors.As(err, &de) {
			t.Fatalf("%s: err = %v, want a DeniedError", tc.name, err)
		}
		if de.Path != tc.path || de.Op != tc.op || !strings.Contains(de.Why, tc.whyPrefix+":") {
			t.Errorf("%s: denied %+v, want path %s op %s why %s:...", tc.name, *de, tc.path, tc.op, tc.whyPrefix)
		}
	}
}

// TestApplyAdminHook: an unchecked Apply reports every edit to the admin
// hook under its unchecked op name after publishing, and a failed one
// reports only the failing edit, with its error. Checked Applies report
// nothing.
func TestApplyAdminHook(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	var mu sync.Mutex
	var got []string
	f.srv.SetAdminHook(func(op, path string, err error) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, op+" "+path+" "+errString(err))
	})
	open := acl.New(acl.Allow("root", acl.AllModes))
	if _, err := f.srv.Apply(nil, lattice.Class{},
		Bind("/svc", BindSpec{Name: "d", Kind: KindDirectory, ACL: open, Class: f.bot}),
		SetACL("/svc/d", open),
		SetClass("/svc/d", f.bot),
		SetPayload("/svc/d", 7),
		Rename("/svc/d", "/", "d2"),
		Unbind("/d2"),
	); err != nil {
		t.Fatal(err)
	}
	if c := SetClass("/svc/d", f.org).Class(); c.String() != f.org.String() {
		t.Fatalf("set-class edit carries class %s, want %s", c, f.org)
	}
	want := []string{
		"bind-unchecked /svc/d ok", "set-acl-unchecked /svc/d ok", "set-class-unchecked /svc/d ok",
		"set-payload /svc/d ok", "rename-unchecked /svc/d ok", "unbind-unchecked /d2 ok",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("hook saw\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	got = nil
	if _, err := f.srv.Apply(nil, lattice.Class{}, SetACL("/svc", open), Unbind("/nope")); err == nil {
		t.Fatal("unbind of a missing path succeeded")
	}
	if len(got) != 1 || !strings.HasPrefix(got[0], "unbind-unchecked /nope names: no such name") {
		t.Fatalf("failed Apply reported %q", got)
	}
	got = nil
	if _, err := f.srv.Apply(f.root, f.bot, SetACL("/svc", open)); err != nil || len(got) != 0 {
		t.Fatalf("checked Apply: err %v, hook saw %q", err, got)
	}
	if v, err := f.srv.Apply(nil, lattice.Class{}); v != 0 || err != nil || len(got) != 0 {
		t.Fatalf("empty Apply: v=%d err=%v hook %q", v, err, got)
	}
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
