package names

import (
	"fmt"
	"testing"
	"unsafe"

	"secext/internal/acl"
	"secext/internal/telemetry"
)

// sameStringData reports whether two strings share a backing pointer.
func sameStringData(a, b string) bool {
	if len(a) == 0 || len(b) == 0 {
		return a == b
	}
	return unsafe.StringData(a) == unsafe.StringData(b)
}

func kidsOf(names ...string) []childRef {
	out := make([]childRef, len(names))
	for i, n := range names {
		out[i] = childRef{node: &Node{path: "/" + n}}
	}
	return out
}

func assertSorted(t *testing.T, kids []childRef) {
	t.Helper()
	for i := 1; i < len(kids); i++ {
		if kids[i-1].name() >= kids[i].name() {
			t.Fatalf("children not strictly sorted: %q >= %q", kids[i-1].name(), kids[i].name())
		}
	}
}

func TestFindChild(t *testing.T) {
	kids := kidsOf("b", "d", "f")
	for _, tc := range []struct {
		name string
		i    int
		ok   bool
	}{
		{"a", 0, false}, {"b", 0, true}, {"c", 1, false},
		{"d", 1, true}, {"e", 2, false}, {"f", 2, true}, {"g", 3, false},
	} {
		i, ok := findChild(kids, tc.name)
		if i != tc.i || ok != tc.ok {
			t.Errorf("findChild(%q) = (%d, %v), want (%d, %v)", tc.name, i, ok, tc.i, tc.ok)
		}
	}
	if i, ok := findChild(nil, "x"); i != 0 || ok {
		t.Errorf("findChild(nil) = (%d, %v)", i, ok)
	}
}

func TestWithChild(t *testing.T) {
	kids := kidsOf("b", "d")
	n := &Node{path: "/c"}

	ins := withChild(kids, "c", n)
	assertSorted(t, ins)
	if len(ins) != 3 || cap(ins) != 3 || ins[1].node != n {
		t.Fatalf("insert: len=%d cap=%d mid=%v", len(ins), cap(ins), ins[1].node)
	}
	if len(kids) != 2 || kids[0].name() != "b" || kids[1].name() != "d" {
		t.Fatal("insert mutated input")
	}

	repl := withChild(kids, "d", n)
	assertSorted(t, repl)
	if len(repl) != 2 || cap(repl) != 2 || repl[1].node != n {
		t.Fatalf("replace: len=%d cap=%d", len(repl), cap(repl))
	}
	if kids[1].node == n {
		t.Fatal("replace mutated input")
	}

	first := withChild(nil, "a", n)
	if len(first) != 1 || cap(first) != 1 || first[0].node != n {
		t.Fatalf("first: %v", first)
	}
}

func TestWithoutChild(t *testing.T) {
	kids := kidsOf("b", "d", "f")
	out := withoutChild(kids, "d")
	assertSorted(t, out)
	if len(out) != 2 || cap(out) != 2 || out[0].name() != "b" || out[1].name() != "f" {
		t.Fatalf("remove: %v", out)
	}
	if len(kids) != 3 {
		t.Fatal("remove mutated input")
	}
	if got := withoutChild(kids, "absent"); &got[0] != &kids[0] {
		t.Fatal("absent name should return the input slice unchanged")
	}
	if got := withoutChild(kidsOf("only"), "only"); got != nil {
		t.Fatalf("last removal should return nil, got %v", got)
	}
}

func TestAppendChild(t *testing.T) {
	n := &Node{}
	// Sorted appends (the wire/bulk pre-order case).
	for _, name := range []string{"a", "c", "e"} {
		appendChild(n, &Node{path: "/" + name})
	}
	assertSorted(t, n.children)
	// Out-of-order insert falls back to a shift.
	appendChild(n, &Node{path: "/b"})
	assertSorted(t, n.children)
	if len(n.children) != 4 || n.children[1].name() != "b" {
		t.Fatalf("after shift: %v", n.children)
	}
	// Same-name append replaces.
	repl := &Node{path: "/c"}
	appendChild(n, repl)
	if len(n.children) != 4 || n.child("c") != repl {
		t.Fatal("duplicate append should replace in place")
	}
}

func TestNodeChild(t *testing.T) {
	n := &Node{children: kidsOf("x", "y")}
	if n.child("x") == nil || n.child("z") != nil {
		t.Fatal("child lookup wrong")
	}
	if (&Node{}).child("x") != nil {
		t.Fatal("leaf child lookup should be nil")
	}
}

func TestInterner(t *testing.T) {
	var in interner
	a := in.intern("/svc/fs")
	b := in.intern("/svc/" + "fs") // distinct allocation, same bytes
	if a != b || !sameStringData(a, b) {
		t.Fatal("intern did not canonicalize")
	}
	st := internStats(&in)
	if st.InternedStrings != 1 || st.InternedBytes != int64(len("/svc/fs")) || st.InternHits != 1 || st.InternMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}

	var nilIn *interner
	if nilIn.intern("pass") != "pass" {
		t.Fatal("nil interner must pass through")
	}
	if (internStats(nilIn) != telemetry.FootprintStats{}) {
		t.Fatal("nil interner stats must be zero")
	}
}

// internStats and canonStats read one intern table's counters into an
// otherwise empty footprint.
func internStats(in *interner) (fp telemetry.FootprintStats) {
	in.stats(&fp)
	return fp
}

func canonStats(c *aclCanon) (fp telemetry.FootprintStats) {
	c.stats(&fp)
	return fp
}

func TestInternerReset(t *testing.T) {
	old := internCap
	internCap = 4
	defer func() { internCap = old }()
	var in interner
	for i := 0; i < 10; i++ {
		in.intern(fmt.Sprintf("/k%d", i))
	}
	st := internStats(&in)
	if st.InternResets == 0 {
		t.Fatalf("expected resets after overflow, stats = %+v", st)
	}
	if st.InternedStrings > 4+1 {
		t.Fatalf("table exceeded cap: %+v", st)
	}
}

func TestNameOf(t *testing.T) {
	for path, want := range map[string]string{
		"/":         "",
		"/a":        "a",
		"/a/b/leaf": "leaf",
	} {
		if got := nameOf(path); got != want {
			t.Errorf("nameOf(%q) = %q, want %q", path, got, want)
		}
	}
	p := "/svc/fs/read"
	if !sameStringData(nameOf(p), p[len(p)-len("read"):]) {
		t.Fatal("nameOf must alias the path's backing array")
	}
}

func TestACLCanon(t *testing.T) {
	var c aclCanon
	mine := acl.New(acl.Allow("alice", acl.Read))
	v1 := c.canon(mine)
	v2 := c.canon(acl.New(acl.Allow("alice", acl.Read)))
	if v1 != v2 {
		t.Fatal("equal ACLs should canonicalize to one pointer")
	}
	if v1 == mine {
		t.Fatal("canonical value must be a private clone")
	}
	// Caller keeps mutating its own copy without corrupting the canon.
	mine.Add(acl.Allow("bob", acl.Write))
	if v := c.canon(acl.New(acl.Allow("alice", acl.Read))); v != v1 || v.Len() != 1 {
		t.Fatal("canonical value changed under caller mutation")
	}
	if c.canon(nil).Len() != 0 {
		t.Fatal("nil ACL should canonicalize to empty")
	}
	st := canonStats(&c)
	if st.ACLCanonDistinct != 2 || st.ACLCanonDedups != 2 {
		t.Fatalf("stats = %+v", st)
	}

	var nilC *aclCanon
	got := nilC.canon(mine)
	if got == mine || got.String() != mine.String() {
		t.Fatal("nil canon must clone")
	}
	if (canonStats(nilC) != telemetry.FootprintStats{}) {
		t.Fatal("nil canon stats must be zero")
	}
}

func TestACLCanonReset(t *testing.T) {
	old := aclCanonCap
	aclCanonCap = 2
	defer func() { aclCanonCap = old }()
	var c aclCanon
	for i := 0; i < 6; i++ {
		c.canon(acl.New(acl.Allow(fmt.Sprintf("p%d", i), acl.Read)))
	}
	if st := canonStats(&c); st.ACLCanonResets == 0 {
		t.Fatalf("expected resets, stats = %+v", st)
	}
}

// TestStructureSharing is the heart of the layout claim: a mutation's
// successor epoch shares every untouched subtree AND every untouched
// child-slice backing array with its parent epoch.
func TestStructureSharing(t *testing.T) {
	f := newFixture(t)
	mk := func(parent, name string, kind Kind) {
		t.Helper()
		if _, err := f.srv.BindUnchecked(parent, BindSpec{Name: name, Kind: kind, ACL: acl.New(acl.AllowEveryone(acl.AllModes)), Class: f.bot}); err != nil {
			t.Fatal(err)
		}
	}
	mk("/", "svc", KindDomain)
	mk("/svc", "fs", KindInterface)
	mk("/svc/fs", "read", KindMethod)
	mk("/", "other", KindDomain)
	mk("/other", "leaf", KindMethod)

	before := f.srv.Current()
	mk("/svc/fs", "write", KindMethod)
	after := f.srv.Current()

	// The untouched sibling subtree is pointer-shared.
	ob, _ := before.Lookup("/other")
	oa, _ := after.Lookup("/other")
	if ob != oa {
		t.Fatal("untouched subtree not shared between epochs")
	}
	// The untouched subtree's children SLICE is shared too (same backing
	// array), and the old tree still lacks the new binding.
	rb, _ := before.Lookup("/svc/fs")
	ra, _ := after.Lookup("/svc/fs")
	if rb == ra {
		t.Fatal("edited spine node unexpectedly shared")
	}
	if rb.child("write") != nil {
		t.Fatal("old epoch saw the new binding")
	}
	if ra.child("write") == nil {
		t.Fatal("new epoch missing the new binding")
	}
	if got := after.Footprint().OwnedNodes; got != 4 {
		// new node + cloned spine: /, /svc, /svc/fs.
		t.Fatalf("OwnedNodes = %d, want 4", got)
	}
}

func TestEpochFootprint(t *testing.T) {
	f := newFixture(t)
	a := acl.New(acl.AllowEveryone(acl.AllModes))
	for i := 0; i < 4; i++ {
		if _, err := f.srv.BindUnchecked("/", BindSpec{Name: fmt.Sprintf("d%d", i), Kind: KindDomain, ACL: a, Class: f.bot}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.srv.BindUnchecked(fmt.Sprintf("/d%d", i), BindSpec{Name: "m", Kind: KindMethod, ACL: a, Class: f.bot}); err != nil {
			t.Fatal(err)
		}
	}
	ef := f.srv.Stats().Footprint
	fp := f.srv.Current().Footprint()
	if fp.Nodes != f.srv.Size() || fp.Nodes != 9 {
		t.Fatalf("Nodes = %d, Size = %d", fp.Nodes, f.srv.Size())
	}
	if fp.Leaves != 4 || fp.Directories != 5 {
		t.Fatalf("Leaves/Directories = %d/%d", fp.Leaves, fp.Directories)
	}
	if fp.OwnedNodes+fp.SharedNodes != fp.Nodes {
		t.Fatalf("owned %d + shared %d != nodes %d", fp.OwnedNodes, fp.SharedNodes, fp.Nodes)
	}
	if fp.ChildSlots != 8 {
		t.Fatalf("ChildSlots = %d", fp.ChildSlots)
	}
	// The 8 bound nodes share one canonical ACL; the root has its own.
	if fp.DistinctACLs != 2 || fp.ACLRefs != 9 {
		t.Fatalf("ACL dedupe: refs %d distinct %d", fp.ACLRefs, fp.DistinctACLs)
	}
	if fp.ACLDedupRatio < 4 {
		t.Fatalf("ACLDedupRatio = %v", fp.ACLDedupRatio)
	}
	// Every bound node's name is carved out of its interned path.
	if fp.NameBytes != 0 {
		t.Fatalf("NameBytes = %d, want 0 (names alias interned paths)", fp.NameBytes)
	}
	if fp.TotalBytes <= 0 || fp.BytesPerNode <= 0 {
		t.Fatalf("byte totals: %+v", fp)
	}
	if fp.EpochVersion != f.srv.Current().Version() {
		t.Fatalf("Version = %d", fp.EpochVersion)
	}
	// Cached: a second call returns identical numbers.
	if again := f.srv.Current().Footprint(); again != fp {
		t.Fatalf("footprint not stable: %+v vs %+v", again, fp)
	}
	if ef.InternMisses == 0 || ef.InternedStrings == 0 {
		t.Fatalf("interner stats empty: %+v", ef)
	}
	if ef.ACLCanonDedups == 0 {
		t.Fatalf("acl canon stats: %+v", ef)
	}
}

func TestBindSubtreeUnchecked(t *testing.T) {
	f := newFixture(t)
	a := acl.New(acl.AllowEveryone(acl.AllModes))
	v0 := f.srv.Current().Version()
	specs := []SubtreeSpec{
		{Path: "svc", Kind: KindDomain, ACL: a, Class: f.bot},
		{Path: "svc/fs", Kind: KindInterface, ACL: a, Class: f.bot},
		{Path: "svc/fs/read", Kind: KindMethod, ACL: a, Class: f.bot},
		{Path: "svc/fs/write", Kind: KindMethod, ACL: a, Class: f.bot},
		{Path: "aux", Kind: KindDomain, ACL: a, Class: f.bot},
	}
	n, v, err := f.srv.BindSubtreeUnchecked("/", specs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(specs) {
		t.Fatalf("created %d, want %d", n, len(specs))
	}
	if v != v0+1 {
		t.Fatalf("bulk bind took %d publications, want 1", v-v0)
	}
	for _, p := range []string{"/svc", "/svc/fs", "/svc/fs/read", "/svc/fs/write", "/aux"} {
		if _, err := f.srv.ResolveUnchecked(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	if got := f.srv.Current().Root().child("svc"); got == nil {
		t.Fatal("subtree not attached")
	}
	checkTree(t, f, 0, 0)

	// All-or-nothing: a failing spec stages nothing.
	for _, bad := range [][]SubtreeSpec{
		{{Path: "svc", Kind: KindDomain, ACL: a, Class: f.bot}},                                                      // exists
		{{Path: "missing/child", Kind: KindMethod, ACL: a, Class: f.bot}},                                            // orphan
		{{Path: "x", Kind: KindDomain, ACL: a}},                                                                      // zero class
		{{Path: "", Kind: KindDomain, ACL: a, Class: f.bot}},                                                         // empty path
		{{Path: "svc/fs/read/sub", Kind: KindMethod, ACL: a, Class: f.bot}},                                          // under leaf (existing)
		{{Path: "l", Kind: KindMethod, ACL: a, Class: f.bot}, {Path: "l/c", Kind: KindMethod, ACL: a, Class: f.bot}}, // under fresh leaf
	} {
		vBefore := f.srv.Current().Version()
		if _, _, err := f.srv.BindSubtreeUnchecked("/", bad); err == nil {
			t.Fatalf("specs %+v: expected error", bad)
		}
		if f.srv.Current().Version() != vBefore {
			t.Fatalf("failed bulk bind published an epoch")
		}
	}
	if _, err := f.srv.ResolveUnchecked("/l"); err == nil {
		t.Fatal("partial subtree leaked into the tree")
	}
	// Empty specs: no-op, no publication.
	vBefore := f.srv.Current().Version()
	if n, _, err := f.srv.BindSubtreeUnchecked("/", nil); err != nil || n != 0 {
		t.Fatalf("empty specs: n=%d err=%v", n, err)
	}
	if f.srv.Current().Version() != vBefore {
		t.Fatal("empty bulk bind published an epoch")
	}
	// Leaf parent rejected.
	if _, _, err := f.srv.BindSubtreeUnchecked("/svc/fs/read", specs[:1]); err == nil {
		t.Fatal("bulk bind under a leaf should fail")
	}
}

// TestIterationAllocatesNothing pins the satellite claim behind the
// sorted-slice fold: looking a child up, deriving entry names, and
// walking a directory's children allocate zero bytes. The PR-4 map
// layout paid a sorted []string per directory listing; the slice
// layout ranges in place.
func TestIterationAllocatesNothing(t *testing.T) {
	kids := kidsOf("a", "b", "c", "d", "e", "f", "g", "h")
	n := &Node{path: "/dir", kind: KindDirectory, children: kids}
	var sink int
	if avg := testing.AllocsPerRun(100, func() {
		for _, cr := range n.children {
			sink += len(cr.name())
		}
		if c := n.child("e"); c != nil {
			sink += len(c.Name())
		}
		if _, ok := findChild(n.children, "zz"); ok {
			sink++
		}
	}); avg != 0 {
		t.Errorf("child iteration allocates %.1f objects per run, want 0", avg)
	}
	_ = sink
}

// BenchmarkChildIteration is the benchmark form of the zero-alloc
// assertion (run with -benchmem: expect 0 B/op, 0 allocs/op), at a
// directory width matching the load harness's fan-out.
func BenchmarkChildIteration(b *testing.B) {
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
	}
	n := &Node{path: "/dir", kind: KindDirectory, children: kidsOf(names...)}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, cr := range n.children {
			sink += len(cr.name())
		}
	}
	_ = sink
}

// BenchmarkChildLookup prices the binary-searched child lookup the
// resolve walk leans on, at the load harness's 256-wide directories.
func BenchmarkChildLookup(b *testing.B) {
	names := make([]string, 256)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
	}
	n := &Node{path: "/dir", kind: KindDirectory, children: kidsOf(names...)}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		if c := n.child(names[i&255]); c != nil {
			sink++
		}
	}
	_ = sink
}
