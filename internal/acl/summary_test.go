package acl

import (
	"math/rand"
	"testing"
)

// fakeResolver is a test IDResolver over a flat name→ID map and a flat
// group→members relation (transitivity is the registry's business; the
// resolver contract only says GroupPrincipalIDs IS the transitive set).
type fakeResolver struct {
	ids    map[string]int
	groups map[string][]string
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

func (r *fakeResolver) GroupPrincipalIDs(group string) []uint64 {
	members, ok := r.groups[group]
	if !ok {
		return nil
	}
	var s IDSet
	for _, m := range members {
		if id, ok := r.ids[m]; ok {
			s.set(id)
		}
	}
	return s
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

func TestIDSetOps(t *testing.T) {
	var s IDSet
	if s.Has(0) || s.Has(100) || s.Len() != 0 {
		t.Fatal("empty set not empty")
	}
	s.set(3)
	s.set(70)
	if !s.Has(3) || !s.Has(70) || s.Has(4) || s.Len() != 2 {
		t.Fatalf("set contents wrong: %v", s)
	}
	if s.Has(-1) {
		t.Fatal("negative ID present")
	}
	var q IDSet
	q.set(70)
	and := s.And(q)
	if !and.Has(70) || and.Has(3) || and.Len() != 1 {
		t.Fatalf("And wrong: %v", and)
	}
	if s.And(nil) != nil {
		t.Fatal("And with empty should be nil")
	}
	if !and.Equal(q) || and.Equal(s) {
		t.Fatal("Equal wrong")
	}
	// Equal must ignore trailing zero words.
	long := make(IDSet, 4)
	long[0] = 1
	short := IDSet{1}
	if !long.Equal(short) || !short.Equal(long) {
		t.Fatal("Equal should ignore trailing zeros")
	}
	ones := onesIDSet(70)
	if ones.Len() != 70 || ones.Has(70) || !ones.Has(69) {
		t.Fatalf("onesIDSet(70) wrong: len=%d", ones.Len())
	}
	if onesIDSet(0) != nil {
		t.Fatal("onesIDSet(0) should be empty")
	}
	if got := s.retainedBytes(); got < 16 {
		t.Fatalf("retainedBytes = %d, want >= 16", got)
	}
	var words IDSet
	words.or([]uint64{0, 1 << 5})
	if !words.Has(69) || words.Len() != 1 {
		t.Fatalf("or wrong: %v", words)
	}
}

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
			eff := sum.EffectiveIDs(m, r.NumPrincipalIDs())
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
