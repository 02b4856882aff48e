package idset

import (
	"slices"
	"sort"
	"testing"
)

// model is the reference a set is checked against.
type model map[int]bool

func (m model) sorted() []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// checkSet asserts s holds exactly m's IDs and keeps the set's
// invariants: nil when empty, chunks non-empty and in key order, each
// in the layout choose picks for it, a full chunk sharing fullRun.
func checkSet(t *testing.T, what string, s *Set, m model) {
	t.Helper()
	if (s == nil) != (len(m) == 0) {
		t.Fatalf("%s: nil=%v for %d IDs", what, s == nil, len(m))
	}
	if s.Len() != len(m) {
		t.Fatalf("%s: Len %d, want %d", what, s.Len(), len(m))
	}
	n, prev, bad := 0, -1, -1
	s.Each(func(id int) {
		if bad < 0 && (id <= prev || !m[id]) {
			bad = id
		}
		prev, n = id, n+1
	})
	if bad >= 0 || n != len(m) {
		t.Fatalf("%s: Each yields %d IDs, the first wrong one %d; want %d", what, n, bad, len(m))
	}
	// Probe every ID and its neighbours in a small set, a sample of a
	// large one.
	stride := len(m)/512 + 1
	k := 0
	for id := range m {
		if k++; k%stride != 0 {
			continue
		}
		for _, probe := range []int{id - 1, id, id + 1} {
			if s.Has(probe) != m[probe] {
				t.Fatalf("%s: Has(%d) = %v", what, probe, s.Has(probe))
			}
		}
	}
	if s == nil {
		return
	}
	for i := range s.cs {
		c := &s.cs[i]
		if i > 0 && s.cs[i-1].key >= c.key {
			t.Fatalf("%s: chunk keys out of order", what)
		}
		var w words
		c.fill(&w)
		canon, ok := fromWords(c.key, &w)
		if !ok || canon.kind != c.kind || canon.card != c.card {
			t.Fatalf("%s: chunk %d kind %d card %d, canonical kind %d card %d", what, c.key, c.kind, c.card, canon.kind, canon.card)
		}
		if c.full() && &c.vals[0] != &fullRun[0] {
			t.Fatalf("%s: full chunk %d does not share fullRun", what, c.key)
		}
	}
}

func (m model) clone() model {
	out := make(model, len(m))
	for id := range m {
		out[id] = true
	}
	return out
}

func TestSetOps(t *testing.T) {
	var empty *Set
	if empty.Has(0) || empty.Len() != 0 || empty.String() != "{}" {
		t.Fatal("nil set not empty")
	}
	s := Of(70, 3, 3)
	checkSet(t, "Of", s, model{3: true, 70: true})
	over := maxID
	over++ // past the ID space (wraps negative where int has 32 bits)
	if s.Has(-1) || s.Has(over) {
		t.Fatal("out-of-range ID present")
	}
	q := Of(70)
	and := s.And(q)
	if and != q {
		t.Fatal("And with a subset must return the subset")
	}
	if s.And(nil) != nil || s.AndNot(s) != nil || s.AndNot(nil) != s || s.Or(nil) != s || empty.Or(s) != s {
		t.Fatal("identities with the empty set broken")
	}
	if !and.Equal(Of(70)) || and.Equal(s) || and.Equal(nil) {
		t.Fatal("Equal wrong")
	}
	if got := s.String(); got != "{3 70}" {
		t.Fatalf("String = %s", got)
	}
	ones := Range(0, 70)
	checkSet(t, "Range(0,70)", ones, func() model {
		m := model{}
		for i := 0; i < 70; i++ {
			m[i] = true
		}
		return m
	}())
	if ones.String() != "{0-69}" {
		t.Fatalf("Range(0,70) = %s", ones)
	}
	if Range(0, 0) != nil || Range(5, 3) != nil {
		t.Fatal("empty range should be nil")
	}
	if got := s.RetainedBytes(); got < 16 {
		t.Fatalf("RetainedBytes = %d, want >= 16", got)
	}
	if empty.RetainedBytes() != 0 {
		t.Fatal("nil set retains bytes")
	}
	b := NewBuilder(s)
	b.Add(5)
	b.Remove(70)
	checkSet(t, "Build", b.Build(), model{3: true, 5: true})
	if NewBuilder(s).Build() != s {
		t.Fatal("a build with no edits must return its base")
	}
	b = NewBuilder(s)
	b.Add(3)
	b.Remove(99)
	if b.Build() != s {
		t.Fatal("a build whose edits change nothing must return its base")
	}
}

// TestEveryoneCostsAWord: IDs 0..n-1 over two chunks take a run each,
// and their And with any set is that set, with no allocation.
func TestEveryoneCostsAWord(t *testing.T) {
	all := Range(0, 100_352)
	if len(all.cs) != 2 || all.cs[0].kind != runs || all.cs[1].kind != runs {
		t.Fatalf("everyone: %d chunks", len(all.cs))
	}
	if got := all.RetainedBytes(); got > 128 {
		t.Fatalf("everyone over 100,352 IDs retains %d B", got)
	}
	vis := Of(1, 70_000, 100_000)
	if allocs := testing.AllocsPerRun(100, func() {
		if vis.And(all) != vis || all.And(vis) != vis || all.Or(vis) != all {
			t.Fatal("an operation with everyone did not return its operand")
		}
	}); allocs != 0 {
		t.Fatalf("And/Or with everyone: %v allocs", allocs)
	}
}

// TestLayoutTransitions walks one chunk through every layout.
func TestLayoutTransitions(t *testing.T) {
	m := model{}
	var ids []int
	for i := 0; i < 2*maxSparse; i += 2 {
		ids = append(ids, i)
		m[i] = true
	}
	s := Of(slices.Clone(ids)...)
	checkSet(t, "4096 evens", s, m)
	if s.cs[0].kind != sparse {
		t.Fatalf("4,096 scattered IDs: kind %d, want sparse", s.cs[0].kind)
	}
	s = s.Or(Of(2*maxSparse + 1))
	m[2*maxSparse+1] = true
	checkSet(t, "4097", s, m)
	if s.cs[0].kind != dense {
		t.Fatalf("4,097 scattered IDs: kind %d, want dense", s.cs[0].kind)
	}
	all := Range(0, chunkSize)
	holed := all.AndNot(Of(100, 200))
	if holed.cs[0].kind != runs || len(holed.cs[0].vals) != 6 {
		t.Fatalf("a full chunk minus two IDs: kind %d, %d vals", holed.cs[0].kind, len(holed.cs[0].vals))
	}
	if got := holed.Or(Of(100, 200)); !got.Equal(all) || &got.cs[0].vals[0] != &fullRun[0] {
		t.Fatal("refilling the holes did not give the full chunk back")
	}
}

// TestAndWithGroupAliases: the And of a set with its superset returns
// the set itself, so a visibility chain over a narrowed set shares it.
func TestAndWithSubsetAliases(t *testing.T) {
	g := Of(5, 70_000)
	if got := Of(1, 5, 9, 70_000).And(g); got != g {
		t.Fatal("And with a superset copied the set")
	}
	if got := g.Or(Of(5)); got != g {
		t.Fatal("Or with a subset copied the set")
	}
	if got := g.AndNot(Of(6, 80_000)); got != g {
		t.Fatal("AndNot of a disjoint set copied the set")
	}
}

// FuzzIDSet runs scripts of set operations against a map model over
// slots of sets. Each step builds a set (from IDs, a range, a dense
// window or a builder edit) or combines two slots, then checks the
// result's IDs, its layout invariants and its pointer rules: an
// operation that leaves an operand's IDs unchanged returns that operand.
// IDs come from windows at 0, just below and above the 65,536 chunk
// boundary, and high in the third chunk.
func FuzzIDSet(f *testing.F) {
	f.Add([]byte{0, 1, 5, 9, 1, 0, 200, 3, 2, 0, 1, 2})
	f.Add([]byte{1, 0, 255, 255, 0, 1, 3, 7, 4, 0, 1, 2, 3, 1, 0, 3})
	f.Add([]byte{6, 0, 2, 1, 6, 1, 3, 1, 3, 0, 1, 2, 4, 2, 0, 3, 5, 2, 9, 1})
	f.Add([]byte{1, 1, 40, 200, 7, 0, 1, 0, 5, 0, 17, 3, 2, 1, 0, 2})
	windows := []int{0, chunkSize - 3000, chunkSize, 2*chunkSize + 60_000}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			return
		}
		var sets [4]*Set
		models := [4]model{{}, {}, {}, {}}
		for step := 0; len(script) >= 4; step++ {
			opc, a, b, c := script[0], int(script[1]), int(script[2]), int(script[3])
			script = script[4:]
			dst := a & 3
			base := windows[a>>2&3]
			var got *Set
			want := model{}
			switch opc % 8 {
			case 0: // a few IDs
				var ids []int
				for i := 0; i < c%16+1; i++ {
					id := base + (b*31+i*c*7)%9000
					ids = append(ids, id)
					want[id] = true
				}
				got = Of(ids...)
			case 1: // a range, up to a whole chunk and across a boundary
				lo := base + b*17
				hi := lo + c*300
				for id := lo; id < hi; id++ {
					want[id] = true
				}
				got = Range(lo, hi)
			case 2, 3, 4: // combine two slots
				x, y := b&3, c&3
				s, t2 := sets[x], sets[y]
				switch opc % 8 {
				case 2:
					got = s.And(t2)
					for id := range models[x] {
						if models[y][id] {
							want[id] = true
						}
					}
					if want := len(want); want == s.Len() && got != s || want != s.Len() && want == t2.Len() && got != t2 {
						t.Fatalf("step %d: And equal to an operand is a copy", step)
					}
				case 3:
					got = s.Or(t2)
					want = models[x].clone()
					for id := range models[y] {
						want[id] = true
					}
					if want := len(want); want == s.Len() && got != s || want != s.Len() && want == t2.Len() && got != t2 {
						t.Fatalf("step %d: Or equal to an operand is a copy", step)
					}
				default:
					got = s.AndNot(t2)
					for id := range models[x] {
						if !models[y][id] {
							want[id] = true
						}
					}
					if len(want) == s.Len() && got != s {
						t.Fatalf("step %d: AndNot equal to its operand is a copy", step)
					}
				}
			case 5: // a builder edit of slot b
				x := b & 3
				want = models[x].clone()
				bld := NewBuilder(sets[x])
				for i := 0; i < c%8; i++ {
					id := base + (b*13+i*c*5)%5000
					if (c>>i)&1 == 0 {
						bld.Add(id)
						want[id] = true
					} else {
						bld.Remove(id)
						delete(want, id)
					}
				}
				got = bld.Build()
				if mapsEqual(want, models[x]) && got != sets[x] {
					t.Fatalf("step %d: a build that changed nothing is a copy", step)
				}
			case 6: // a dense window: every k-th ID of ~9000
				k := c%5 + 1
				var ids []int
				for id := base + b; id < base+b+9000; id += k {
					ids = append(ids, id)
					want[id] = true
				}
				got = Of(ids...)
			default: // Equal against a rebuild from the model
				x := b & 3
				if !sets[x].Equal(Of(models[x].sorted()...)) || sets[x].Equal(sets[c&3]) != mapsEqual(models[x], models[c&3]) {
					t.Fatalf("step %d: Equal disagrees with the model", step)
				}
				continue
			}
			checkSet(t, "result", got, want)
			sets[dst], models[dst] = got, want
		}
	})
}

func mapsEqual(a, b model) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}
