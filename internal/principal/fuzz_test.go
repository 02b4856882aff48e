package principal

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"secext/internal/lattice"
)

// FuzzRegistryApply runs random multi-edit Apply scripts — new
// principals and groups, member and subgroup edges added and removed,
// and edits that fail (duplicates, unknown names, cycles, bad names) —
// and after every call asserts:
//
//   - a successful call's closure equals the naive one, and the reverse
//     index equals the closure;
//   - a failed call leaves the published view and the dense ID
//     sequence alone;
//   - the successor shares every row chunk, reverse-index row and group
//     record it did not change with its predecessor;
//   - every view published earlier still reads as it did when it was
//     published.
//
// Each call takes one count byte (1–4 edits) and two bytes per edit:
// the edit kind and an argument naming one of eight principals and six
// groups.
func FuzzRegistryApply(f *testing.F) {
	f.Add([]byte{
		3, 0, 0, 0, 1, 1, 0, 1, 1, // p0, p1, g0, g1
		2, 2, 0, 2, 9, 3, 1, // p0 in g0, p1 in g1, g0 in g1
		0, 1, 2, 0, 3, 10, // g2, then g1 in g2
		1, 4, 0, 2, 0, // p0 leaves g0 and rejoins: cancels out
		0, 3, 16, // g2 in g0: a cycle
		1, 0, 2, 6, 0, // p2, then a bad name
		0, 5, 10, 0, 0, 3, // g1 out of g2, p3
	})
	f.Add([]byte("applying registry edits in one transaction"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 96 {
			script = script[:96]
		}
		r, lat := newTestRegistry(t)
		c := lat.MustClass("others")
		type pin struct {
			f    *Frozen
			seen string
		}
		pins := []pin{{r.Freeze(), render(r.Freeze())}}
		for call := 0; len(script) > 0; call++ {
			n := 1 + int(script[0]%4)
			script = script[1:]
			var edits []Edit
			for ; n > 0 && len(script) >= 2; n-- {
				edits = append(edits, scriptEdit(script[0], script[1], c))
				script = script[2:]
			}
			if len(edits) == 0 {
				break
			}
			prev := r.Freeze()
			_, err := r.Apply(edits...)
			next := r.Freeze()
			context := fmt.Sprintf("call %d %v", call, edits)
			if err != nil {
				if !errors.Is(err, ErrExists) && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCycle) && !errors.Is(err, ErrBadName) {
					t.Fatalf("%s: unexpected error %v", context, err)
				}
				if next != prev {
					t.Fatalf("%s: failed Apply published v%d", context, next.Version())
				}
			} else {
				if next.Version() != prev.Version()+1 {
					t.Fatalf("%s: v%d after v%d", context, next.Version(), prev.Version())
				}
				checkClosure(t, next, context)
				checkSharing(t, prev, next, context)
				pins = append(pins, pin{next, render(next)})
			}
			// Dense IDs: no gap a failed call could have left.
			for id, p := range next.PrincipalsFrom(0) {
				if p.ID() != id {
					t.Fatalf("%s: principal %s has ID %d at position %d", context, p.SubjectName(), p.ID(), id)
				}
			}
			for _, p := range pins {
				if got := render(p.f); got != p.seen {
					t.Fatalf("%s: pinned v%d changed:\n was %s\n now %s", context, p.f.Version(), p.seen, got)
				}
			}
		}
	})
}

// scriptEdit decodes one fuzz edit from its kind and argument bytes:
// the argument's low three bits name the principal or group edited, the
// next three the member.
func scriptEdit(kind, arg byte, c lattice.Class) Edit {
	first, second := int(arg&7), int(arg>>3&7)
	p, g := fmt.Sprintf("p%d", first), fmt.Sprintf("g%d", first%6)
	mp, mg := fmt.Sprintf("p%d", second), fmt.Sprintf("g%d", second%6)
	switch kind % 7 {
	case 0:
		return AddPrincipal(p, c)
	case 1:
		return AddGroup(g)
	case 2:
		return AddMember(g, mp)
	case 3:
		return AddMember(g, mg)
	case 4:
		return RemoveMember(g, mp)
	case 5:
		return RemoveMember(g, mg)
	default:
		return AddGroup("bad name")
	}
}

// render prints everything a reader of f can observe.
func render(f *Frozen) string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", f.Version())
	for _, p := range f.Principals() {
		id, _ := f.PrincipalID(p)
		fmt.Fprintf(&b, " %s#%d%v", p, id, f.GroupsOf(p))
	}
	for _, g := range f.Groups() {
		members, _ := f.Members(g)
		fmt.Fprintf(&b, " %s%v%v", g, members, f.GroupPrincipalIDs(g))
	}
	return b.String()
}

// checkSharing asserts that next shares with prev exactly what the
// transition left unchanged: a group record, a reverse-index row or a
// row chunk keeps its pointer if and only if its value is unchanged,
// and no group changes bit position.
func checkSharing(t *testing.T, prev, next *Frozen, context string) {
	t.Helper()
	for name, pg := range prev.groups {
		ng := next.groups[name]
		if ng.idx != pg.idx {
			t.Fatalf("%s: group %s moved from bit %d to %d", context, name, pg.idx, ng.idx)
		}
		same := slices.Equal(pg.principals, ng.principals) && slices.Equal(pg.subgroups, ng.subgroups)
		if same != (pg == ng) {
			t.Fatalf("%s: group %s record shared=%v, lists equal=%v", context, name, pg == ng, same)
		}
		pw, nw := prev.groupMembers[pg.idx], next.groupMembers[pg.idx]
		if pw.Equal(nw) != (pw == nw) {
			t.Fatalf("%s: group %s reverse row shared=%v, value equal=%v", context, name, pw == nw, pw.Equal(nw))
		}
	}
	for c, pc := range prev.rows {
		same := true
		for i := range pc {
			pr, nr := pc[i], next.rows[c][i]
			same = same && pr.p == nr.p && pr.direct.Equal(nr.direct) && pr.groups.Equal(nr.groups)
		}
		if same != (pc == next.rows[c]) {
			t.Fatalf("%s: row chunk %d shared=%v, rows equal=%v", context, c, pc == next.rows[c], same)
		}
	}
}
