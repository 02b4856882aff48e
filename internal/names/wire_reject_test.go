package names

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"secext/internal/acl"
)

// TestEpochMessageRejected: every check of BuildEpoch and the graft
// refuses a message DiffEpochs would never emit, and a refused message
// publishes nothing. Each case edits one valid delta onto the wire
// fixture's epoch: a new directory /svc/new holding one file.
func TestEpochMessageRejected(t *testing.T) {
	f, _ := wirePrimary(t)
	base := f.srv.Current()
	frames := snapshotFrames(t, base)
	aclText := acl.New(acl.Allow("alice", acl.Read)).String()
	label, err := f.lat.Format(f.bot)
	if err != nil {
		t.Fatal(err)
	}
	read, err := base.Lookup("/svc/fs/read")
	if err != nil {
		t.Fatal(err)
	}
	anchor := func(path string, kind Kind) RowWire { return RowWire{Name: path, Parent: -1, Kind: uint8(kind)} }
	child := func(parent int32, name string, kind Kind) RowWire {
		return RowWire{Name: name, Parent: parent, Kind: uint8(kind)}
	}
	delta := func(edit func(w *EpochWire)) *EpochWire {
		w := &EpochWire{From: 1, Version: 2, ACLs: []string{aclText}, Classes: []string{label},
			Rows: []RowWire{anchor("/svc/new", KindDirectory), child(0, "leaf", KindFile)}}
		edit(w)
		return w
	}
	rows := func(rs ...RowWire) func(w *EpochWire) { return func(w *EpochWire) { w.Rows = rs } }
	snapshot := func(w *EpochWire) { w.From = 0 }

	m := mirrorFrom(t, frames)
	tree, err := m.srv.BuildEpoch(delta(func(*EpochWire) {}))
	if err != nil {
		t.Fatalf("the unedited delta: %v", err)
	}
	if _, err := m.srv.ApplyReplicated(ReplicaApply{Tree: tree}); err == nil || !strings.Contains(err.Error(), "primary version") {
		t.Fatalf("an apply without a primary version: %v", err)
	}
	if _, err := m.srv.ApplyReplicated(ReplicaApply{PrimaryVersion: 2, Tree: tree}); err != nil {
		t.Fatalf("the unedited delta: %v", err)
	}

	cases := []struct {
		name string
		edit func(w *EpochWire)
		want string
	}{
		{"unparsable ACL", func(w *EpochWire) { w.ACLs[0] = "allow alice" }, "ACL 0"},
		{"duplicate ACL", func(w *EpochWire) { w.ACLs = append(w.ACLs, aclText) }, "not canonical or not distinct"},
		{"unparsable class", func(w *EpochWire) { w.Classes[0] = "no-such-level" }, "class 0"},
		{"duplicate class", func(w *EpochWire) { w.Classes = append(w.Classes, label) }, "not canonical or not distinct"},
		{"unused ACL", func(w *EpochWire) { w.ACLs = append(w.ACLs, acl.New().String()) }, "tables list"},
		{"snapshot with deletes", func(w *EpochWire) { snapshot(w); w.Deletes = []string{"/svc"} }, "from version 0 deletes"},
		{"snapshot without the root", snapshot, "must begin with the root"},
		{"snapshot with a second anchor", func(w *EpochWire) {
			snapshot(w)
			rows(anchor("/", KindRoot), anchor("/svc", KindDomain))(w)
		}, "the root is the only anchor"},
		{"relative delete", func(w *EpochWire) { w.Deletes = []string{"svc"} }, "must be absolute"},
		{"root delete", func(w *EpochWire) { w.Deletes = []string{"/"} }, "deletes the root"},
		{"deletes out of order", func(w *EpochWire) { w.Deletes = []string{"/svc/home", "/svc/fs"} }, "delete /svc/fs out of order"},
		{"unknown delete", func(w *EpochWire) { w.Deletes = []string{"/nope"} }, "deletes unknown path /nope"},
		{"delete below a delete", func(w *EpochWire) { w.Deletes = []string{"/svc/home", "/svc/home/f1"} }, "deletes unknown path /svc/home/f1"},
		{"unknown kind", func(w *EpochWire) { w.Rows[1].Kind = 200 }, "unknown kind"},
		{"ACL index", func(w *EpochWire) { w.Rows[1].ACL = 5 }, "ACL index"},
		{"class index", func(w *EpochWire) { w.Rows[1].Class = 5 }, "class index"},
		{"multilevel leaf", func(w *EpochWire) { w.Rows[1].Multilevel = true }, "multilevel leaf"},
		{"second root", func(w *EpochWire) { w.Rows[1].Kind = uint8(KindRoot) }, "second root"},
		{"root anchor of another kind", rows(anchor("/", KindDirectory)), "the root is not one"},
		{"malformed anchor", rows(anchor("/svc//x", KindFile)), "malformed path"},
		{"anchors out of order", rows(anchor("/svc/new", KindFile), anchor("/svc/fs", KindFile)), "anchor /svc/fs out of order"},
		{"anchor also deleted", func(w *EpochWire) { w.Deletes = []string{"/svc/new"} }, "also deleted"},
		{"child before any anchor", rows(child(0, "x", KindFile)), "not an open ancestor"},
		{"child of another anchor", rows(anchor("/svc/a", KindDirectory), anchor("/svc/b", KindFile), child(0, "x", KindFile)), "not an open ancestor"},
		{"child of a leaf", rows(anchor("/svc/new", KindFile), child(0, "x", KindFile)), "is a leaf"},
		{"bad component", func(w *EpochWire) { w.Rows[1].Name = ".." }, "component"},
		{"siblings out of order", rows(anchor("/svc/new", KindDirectory), child(0, "b", KindFile), child(0, "a", KindFile)), "sibling order"},
		{"anchor without a parent", rows(anchor("/nope/x", KindFile)), "anchor /nope/x has no parent"},
		{"anchor under a leaf", rows(anchor("/svc/fs/read/x", KindFile)), "has no parent"},
		{"anchor below a new subtree", rows(anchor("/svc/new", KindDirectory), anchor("/svc/new/x", KindFile)), "lies below the new subtree /svc/new"},
		{"anchor over a node with rows", rows(anchor("/svc/home", KindDirectory), child(0, "x", KindFile)), "replaces a node and carries rows"},
		{"anchor that changes nothing", func(w *EpochWire) {
			w.ACLs = []string{read.ACL().String()}
			rows(anchor("/svc/fs/read", read.Kind()))(w)
		}, "changes nothing"},
		{"leaf anchor over children", rows(anchor("/svc/home", KindFile)), "replaces a node with children"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mirrorFrom(t, frames)
			before := m.srv.Current()
			tree, err := m.srv.BuildEpoch(delta(tc.edit))
			if err == nil {
				_, err = m.srv.ApplyReplicated(ReplicaApply{PrimaryVersion: 2, Tree: tree})
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to mention %q", err, tc.want)
			}
			if m.srv.Current() != before {
				t.Fatal("a refused message published an epoch")
			}
		})
	}
}

// TestDecodeEpochRejected: the header and framing checks of
// DecodeEpoch, and the escapes of a string field.
func TestDecodeEpochRejected(t *testing.T) {
	cases := []struct {
		name, stream, want string
	}{
		{"no frames", "", io.ErrUnexpectedEOF.Error()},
		{"no header", "SNAP x\n", "expected a SNAP-HEAD frame"},
		{"not advancing", `SNAP-HEAD {"from":3,"version":3}` + "\n", "does not advance"},
		{"negative length", `SNAP-HEAD {"from":3,"version":4,"deletes":-1}` + "\n", "negative table length"},
		{"no end", `SNAP-HEAD {"from":3,"version":4}` + "\nSNAP-GARBAGE\n", "expected SNAP-END"},
		{"bad escape", `SNAP-HEAD {"from":3,"version":4,"deletes":1}` + "\nSNAP /a%G0\nSNAP-END\n", "bad escape"},
		{"cut escape", `SNAP-HEAD {"from":3,"version":4,"deletes":1}` + "\nSNAP /a%4\nSNAP-END\n", "bad escape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeEpoch(frameSource(splitFrames([]byte(tc.stream))))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want it to mention %q", err, tc.want)
			}
		})
	}
	w, err := DecodeEpoch(frameSource(splitFrames([]byte(`SNAP-HEAD {"from":3,"version":4,"deletes":1}` + "\nSNAP /a%7e%7E\nSNAP-END\n"))))
	if err != nil || w.Deletes[0] != "/a~~" {
		t.Fatalf("lower- and upper-case escapes: %+v, %v", w, err)
	}
}

// TestDiffEpochsRejectsUnrelated: a delta needs two epochs of one
// history, in order; a changed guard stack travels whole.
func TestDiffEpochsRejectsUnrelated(t *testing.T) {
	a, b := newFixture(t), newFixture(t)
	if _, err := a.lat.DefineLevel("ultra"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.lat.DefineLevel("other"); err != nil {
		t.Fatal(err)
	}
	if _, err := DiffEpochs(a.srv.Current(), b.srv.Current()); err == nil || !strings.Contains(err.Error(), "rewrote") {
		t.Fatalf("rewritten levels: %v", err)
	}
	if _, err := b.lat.DefineCategory("dept-3"); err != nil {
		t.Fatal(err)
	}
	if _, err := DiffEpochs(b.srv.Current(), a.srv.Current()); err == nil {
		t.Fatal("diffed to an older epoch")
	}
	prev := a.srv.Current()
	if _, err := a.lat.DefineLevel("ultra2"); err != nil {
		t.Fatal(err)
	}
	c := newFixture(t)
	for c.srv.Version() < a.srv.Version() {
		c.srv.PublishStack(c.srv.Current().Stack())
	}
	if _, err := DiffEpochs(a.srv.Current(), c.srv.Current()); err == nil || !strings.Contains(err.Error(), "shrank") {
		t.Fatalf("shrunk levels: %v", err)
	}
	remove := a.srv.Pipeline().Install(statefulGuard{})
	defer remove()
	d, err := DiffEpochs(prev, a.srv.Current())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.Stack, ","); !strings.Contains(got, "stateful-test") || strings.Join(d.Levels, ",") != "ultra2" {
		t.Fatalf("delta stack %q, levels %v", got, d.Levels)
	}
}

// TestComparePaths: tree pre-order is component order, ancestors first.
func TestComparePaths(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"/", "/a", -1}, {"/a", "/a/b", -1}, {"/a/b", "/a-c", -1}, {"/a", "/ab", -1},
		{"/a", "/b", -1}, {"/a/z", "/b", -1}, {"/a", "/a", 0},
	} {
		got, back := comparePaths(tc.a, tc.b), comparePaths(tc.b, tc.a)
		if sign(got) != tc.want || sign(back) != -tc.want {
			t.Errorf("comparePaths(%q, %q) = %d, reversed %d, want sign %d", tc.a, tc.b, got, back, tc.want)
		}
	}
	for _, tc := range []struct {
		path, dir string
		want      bool
	}{
		{"/a", "/", true}, {"/a/b", "/a", true}, {"/ab", "/a", false}, {"/a", "/a/b", false},
	} {
		if got := under(tc.path, tc.dir); got != tc.want {
			t.Errorf("under(%q, %q) = %v", tc.path, tc.dir, got)
		}
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// TestOneRowDeltaAllocation pins what the publisher pays per edit:
// diffing a one-node ACL edit and framing it into one payload. A frame
// buffer sized for a snapshot (64 KiB) would show here.
func TestOneRowDeltaAllocation(t *testing.T) {
	f, _ := wirePrimary(t)
	prev := f.srv.Current()
	if err := f.srv.SetACLUnchecked("/svc/fs/read", acl.New(acl.Allow("alice", acl.Read))); err != nil {
		t.Fatal(err)
	}
	next := f.srv.Current()
	var failed error
	perEncode := testingAllocs(1000, func() {
		d, err := DiffEpochs(prev, next)
		if err == nil && len(d.Rows) != 1 {
			err = errors.New("not a one-row delta")
		}
		var body []byte
		if err == nil {
			err = EncodeEpoch(d, func(f []byte) error {
				body = append(body, f...)
				return nil
			})
		}
		if err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if perEncode >= 4<<10 {
		t.Fatalf("a one-row delta allocates %d B to encode, want under 4 KiB", perEncode)
	}
}

// testingAllocs returns the bytes fn allocates per call, averaged over
// n calls by runtime.MemStats.TotalAlloc.
func testingAllocs(n int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}
