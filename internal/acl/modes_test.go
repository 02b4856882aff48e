package acl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestModeString(t *testing.T) {
	cases := []struct {
		m    Mode
		want string
	}{
		{None, "none"},
		{Read, "read"},
		{Read | Write, "read,write"},
		{WriteAppend, "write-append"},
		{Execute | Extend, "execute,extend"},
		{AllModes, "read,write,write-append,execute,extend,administrate,delete,list"},
	}
	for _, tc := range cases {
		if got := tc.m.String(); got != tc.want {
			t.Errorf("(%#x).String() = %q, want %q", uint16(tc.m), got, tc.want)
		}
	}
}

func TestModeStringInvalidBits(t *testing.T) {
	m := Read | Mode(1<<12)
	s := m.String()
	if s == "read" {
		t.Errorf("invalid bits must be visible in %q", s)
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
	}{
		{"", None},
		{"none", None},
		{"all", AllModes},
		{"read", Read},
		{"read,execute", Read | Execute},
		{"write-append", WriteAppend},
		{"administrate,delete,list", Administrate | Delete | List},
	}
	for _, tc := range cases {
		got, err := ParseMode(tc.in)
		if err != nil {
			t.Errorf("ParseMode(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus): want error")
	}
	if _, err := ParseMode("read,"); err == nil {
		t.Error("ParseMode with trailing comma: want error")
	}
}

// ParseMode runs once per remote CHECK; it must not allocate on the
// success path.
func TestParseModeAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseMode("read,write,list"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseMode allocates %v times per call, want 0", n)
	}
}

func TestModeHas(t *testing.T) {
	m := Read | Execute
	if !m.Has(Read) || !m.Has(Execute) || !m.Has(Read|Execute) {
		t.Error("Has must accept subsets")
	}
	if m.Has(Write) || m.Has(Read|Write) {
		t.Error("Has must reject supersets")
	}
	if !m.Has(None) {
		t.Error("Has(None) must be true")
	}
}

func TestPropModeStringParseRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		m := Mode(raw) & AllModes
		got, err := ParseMode(m.String())
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randEntry generates arbitrary ACL entries over a small name universe.
type randEntry struct{ E Entry }

var names = []string{"alice", "bob", "carol", "dave"}
var groupNames = []string{"staff", "admins", "outside"}

func (randEntry) Generate(r *rand.Rand, _ int) reflect.Value {
	var e Entry
	switch r.Intn(3) {
	case 0:
		e.Kind = Principal
		e.Who = names[r.Intn(len(names))]
	case 1:
		e.Kind = Group
		e.Who = groupNames[r.Intn(len(groupNames))]
	case 2:
		e.Kind = Everyone
	}
	e.Deny = r.Intn(2) == 0
	e.Modes = Mode(r.Intn(int(AllModes))) + 1 // non-empty
	return reflect.ValueOf(randEntry{e})
}

func randomSubject(r *rand.Rand) fakeSubject {
	s := subj(names[r.Intn(len(names))])
	for _, g := range groupNames {
		if r.Intn(2) == 0 {
			s.groups[g] = true
		}
	}
	return s
}

func TestPropAllowMonotonic(t *testing.T) {
	// Adding an allow entry never shrinks any subject's granted set.
	f := func(base []randEntry, extra randEntry, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSubject(r)
		a := New()
		for _, e := range base {
			a.Add(e.E)
		}
		before := a.Granted(s)
		extra.E.Deny = false
		a.Add(extra.E)
		after := a.Granted(s)
		return after.Has(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropDenyAntitonic(t *testing.T) {
	// Adding a deny entry never grows any subject's granted set.
	f := func(base []randEntry, extra randEntry, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSubject(r)
		a := New()
		for _, e := range base {
			a.Add(e.E)
		}
		before := a.Granted(s)
		extra.E.Deny = true
		a.Add(extra.E)
		after := a.Granted(s)
		return before.Has(after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropDenyEveryoneIsAbsolute(t *testing.T) {
	// With a deny-everyone-all entry present, nothing is ever granted.
	f := func(base []randEntry, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSubject(r)
		a := New(DenyEveryone(AllModes))
		for _, e := range base {
			a.Add(e.E)
		}
		return a.Granted(s) == None
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropEntryOrderIrrelevant(t *testing.T) {
	// Deny-overrides semantics are order-independent: reversing the
	// entry insertion order yields identical decisions.
	f := func(es []randEntry, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSubject(r)
		fwd, rev := New(), New()
		for _, e := range es {
			fwd.Add(e.E)
		}
		for i := len(es) - 1; i >= 0; i-- {
			rev.Add(es[i].E)
		}
		return fwd.Granted(s) == rev.Granted(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropParseRoundTripACL(t *testing.T) {
	f := func(es []randEntry) bool {
		a := New()
		for _, e := range es {
			a.Add(e.E)
		}
		b, err := Parse(a.String())
		if err != nil {
			return false
		}
		return b.String() == a.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
