package acl

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"secext/internal/idset"
)

// fakeResolver is a test IDResolver over a flat name→ID map and a flat
// group→members relation (transitivity is the registry's business; the
// resolver contract only says GroupPrincipalIDs IS the transitive set).
// Like a frozen registry it hands out one set per group.
type fakeResolver struct {
	ids    map[string]int
	groups map[string][]string
	sets   map[string]*idset.Set
	n      int
}

func newFakeResolver(principals []string, groups map[string][]string) *fakeResolver {
	r := &fakeResolver{ids: map[string]int{}, groups: groups}
	for _, p := range principals {
		r.ids[p] = r.n
		r.n++
	}
	return r
}

func (r *fakeResolver) PrincipalID(name string) (int, bool) {
	id, ok := r.ids[name]
	return id, ok
}

func (r *fakeResolver) GroupPrincipalIDs(group string) *idset.Set {
	if s, ok := r.sets[group]; ok {
		return s
	}
	var ids []int
	for _, m := range r.groups[group] {
		if id, ok := r.ids[m]; ok {
			ids = append(ids, id)
		}
	}
	if r.sets == nil {
		r.sets = map[string]*idset.Set{}
	}
	r.sets[group] = idset.Of(ids...)
	return r.sets[group]
}

func (r *fakeResolver) NumPrincipalIDs() int { return r.n }

// IsMember makes the resolver double as the Membership oracle, so the
// compiled and iterated paths judge group entries against the same
// relation.
func (r *fakeResolver) IsMember(subject, group string) bool {
	for _, m := range r.groups[group] {
		if m == subject {
			return true
		}
	}
	return false
}

// namedSubject is a Subject whose MemberOf always says no; tests pass
// the Membership explicitly, as epoch-pinned decisions do.
type namedSubject string

func (s namedSubject) SubjectName() string        { return string(s) }
func (s namedSubject) MemberOf(group string) bool { return false }

func TestSummaryRegSensitive(t *testing.T) {
	r := newFakeResolver([]string{"alice", "bob"}, map[string][]string{"staff": {"bob"}})
	if New(Allow("alice", Read), AllowEveryone(List)).Compile(r).RegSensitive() {
		t.Fatal("resolved individual + everyone entries should not be registry-sensitive")
	}
	if !New(AllowGroup("staff", Read)).Compile(r).RegSensitive() {
		t.Fatal("group entry must be registry-sensitive")
	}
	if !New(Allow("ghost", Read)).Compile(r).RegSensitive() {
		t.Fatal("unresolved principal must be registry-sensitive")
	}
	if !New(AllowGroup("nosuch", Read)).Compile(r).RegSensitive() {
		t.Fatal("unknown group must be registry-sensitive")
	}
}

func TestSummaryGrantsEmptyWant(t *testing.T) {
	r := newFakeResolver([]string{"alice"}, nil)
	s := New(Deny("alice", AllModes)).Compile(r)
	if !s.Grants(0, None) {
		t.Fatal("empty want must always be granted")
	}
	if s.Grants(0, 1<<numModes) {
		t.Fatal("out-of-range mode bits must not be granted")
	}
}

// TestSummaryOracle cross-checks the compiled verdict against the
// entry-iteration oracle (GrantedIn / CheckIn) over randomized ACLs,
// memberships, and subjects — including names the registry does not
// know and groups the ACL names but the relation lacks.
func TestSummaryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	principals := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9"}
	groupNames := []string{"g0", "g1", "g2", "g3", "nosuch"}

	for trial := 0; trial < 300; trial++ {
		groups := map[string][]string{}
		for _, g := range groupNames[:4] {
			var members []string
			for _, p := range principals {
				if rng.Intn(3) == 0 {
					members = append(members, p)
				}
			}
			groups[g] = members
		}
		r := newFakeResolver(principals, groups)

		a := New()
		for i, n := 0, rng.Intn(8); i < n; i++ {
			modes := Mode(rng.Intn(int(AllModes) + 1))
			deny := rng.Intn(2) == 0
			switch rng.Intn(4) {
			case 0:
				who := principals[rng.Intn(len(principals))]
				if rng.Intn(8) == 0 {
					who = "ghost" // unresolved
				}
				if deny {
					a.Add(Deny(who, modes))
				} else {
					a.Add(Allow(who, modes))
				}
			case 1:
				g := groupNames[rng.Intn(len(groupNames))]
				if deny {
					a.Add(DenyGroup(g, modes))
				} else {
					a.Add(AllowGroup(g, modes))
				}
			default:
				if deny {
					a.Add(DenyEveryone(modes))
				} else {
					a.Add(AllowEveryone(modes))
				}
			}
		}

		sum := a.Compile(r)
		for _, p := range principals {
			id, _ := r.PrincipalID(p)
			subj := namedSubject(p)
			oracle := a.GrantedIn(subj, r)
			if got := sum.Granted(id); got != oracle {
				t.Fatalf("trial %d: Granted(%s) = %s, oracle %s\nacl: %s",
					trial, p, got, oracle, a)
			}
			for k := 0; k < 4; k++ {
				want := Mode(rng.Intn(int(AllModes) + 1))
				if got, exp := sum.Grants(id, want), a.CheckIn(subj, want, r); got != exp {
					t.Fatalf("trial %d: Grants(%s, %s) = %v, oracle %v\nacl: %s",
						trial, p, want, got, exp, a)
				}
			}
		}

		// EffectiveIDs must equal the per-principal oracle per mode.
		for b := 0; b < numModes; b++ {
			m := Mode(1) << b
			eff := sum.EffectiveIDs(m, idset.Range(0, r.NumPrincipalIDs()))
			for _, p := range principals {
				id, _ := r.PrincipalID(p)
				oracle := a.GrantedIn(namedSubject(p), r).Has(m)
				if eff.Has(id) != oracle {
					t.Fatalf("trial %d: EffectiveIDs(%s).Has(%s) = %v, oracle %v\nacl: %s",
						trial, m, p, eff.Has(id), oracle, a)
				}
			}
			if eff.Has(r.NumPrincipalIDs()) {
				t.Fatalf("trial %d: EffectiveIDs leaked a bit beyond N", trial)
			}
		}
	}
}

func TestSummaryRetainedBytes(t *testing.T) {
	r := newFakeResolver([]string{"a", "b"}, nil)
	empty := New().Compile(r)
	if empty.RetainedBytes() != 0 {
		t.Fatalf("empty summary retains %d bytes", empty.RetainedBytes())
	}
	s := New(Allow("a", AllModes)).Compile(r)
	if s.RetainedBytes() < 8*numModes {
		t.Fatalf("summary retains %d bytes, want >= %d", s.RetainedBytes(), 8*numModes)
	}
}

// TestCompileHighIDAllocs: a principal entry at ID 10,000 sizes each of
// its mode sets in one allocation, not one per word appended.
func TestCompileHighIDAllocs(t *testing.T) {
	r := &fakeResolver{ids: map[string]int{"late": 10_000}, n: 10_001}
	a := New(Allow("late", Read|Write))
	allocs := testing.AllocsPerRun(100, func() { a.Compile(r) })
	// The Summary itself plus one set per mode bit.
	if allocs > 3 {
		t.Fatalf("compiling one entry at ID 10,000: %v allocs, want <= 3", allocs)
	}
	if s := a.Compile(r); !s.Grants(10_000, Read|Write) || s.Grants(9_999, Read) {
		t.Fatal("summary at ID 10,000 wrong")
	}
}

// TestPoolACLFootprint compiles an ACL shaped like the load pool's
// (everyone read+list, one principal write+delete, one 32-member group
// write+administrate) against 10^5 principal IDs. Its sets hold at most
// 33 IDs, so the summary retains a few hundred bytes wherever the IDs
// fall (dense sets over the ID space took ~37 KB); the Administrate set
// is the group's own set.
func TestPoolACLFootprint(t *testing.T) {
	const n = 100_000
	principals := make([]string, n)
	for i := range principals {
		principals[i] = fmt.Sprintf("p%06d", i)
	}
	var members []string
	for i := 17; i < n; i += n / 32 {
		members = append(members, principals[i])
	}
	r := newFakeResolver(principals, map[string][]string{"g": members})
	a := New(
		AllowEveryone(Read|List),
		Allow(principals[99_999], Write|Delete),
		AllowGroup("g", Write|Administrate),
	)
	s := a.Compile(r)
	if got := s.RetainedBytes(); got > 512 {
		t.Fatalf("pool-shaped summary retains %d B, want <= 512", got)
	}
	bit := func(m Mode) int { return bits.TrailingZeros16(uint16(m)) }
	if s.allow[bit(Administrate)] != r.GroupPrincipalIDs("g") {
		t.Fatal("the Administrate set is not the group's set")
	}
	if s.allow[bit(Write)].Len() != 33 || s.allow[bit(Delete)].Len() != 1 {
		t.Fatalf("Write holds %d IDs, Delete %d", s.allow[bit(Write)].Len(), s.allow[bit(Delete)].Len())
	}
	if !s.Grants(99_999, Write|Delete|Read) || s.Grants(99_999, Administrate) || !s.Grants(17, Administrate|Write) {
		t.Fatal("pool-shaped summary verdicts wrong")
	}
}

// TestSameSourcesShareOneSet: per-mode sets drawn from the same entries
// are one set, so an entry granting every mode costs one set.
func TestSameSourcesShareOneSet(t *testing.T) {
	r := newFakeResolver([]string{"a", "b"}, nil)
	s := New(Allow("a", AllModes), Deny("b", Write|Read)).Compile(r)
	for b := 1; b < numModes; b++ {
		if s.allow[b] != s.allow[0] {
			t.Fatalf("allow set of mode bit %d is a copy", b)
		}
	}
	if s.deny[0] != s.deny[1] || s.deny[0] == s.allow[0] || s.deny[2] != nil {
		t.Fatal("deny sets shared wrongly")
	}
}
