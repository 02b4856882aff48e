package principal

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"secext/internal/hamt"
	"secext/internal/idset"
	"secext/internal/lattice"
)

// Edit is one registry mutation for Registry.Apply. Build it with
// AddPrincipal, AddGroup, AddMember or RemoveMember.
type Edit struct {
	op    string // "add-principal", "add-group", "add-member" or "remove-member"
	name  string // the principal or group added, or the member edited
	group string // add-member, remove-member: the group edited
	class lattice.Class
}

// AddPrincipal registers a new principal with the given default class.
// Its dense ID is the next one in arrival order.
func AddPrincipal(name string, class lattice.Class) Edit {
	return Edit{op: "add-principal", name: name, class: class}
}

// AddGroup registers a new empty group. It takes the next group bit
// position, so it moves no existing membership row.
func AddGroup(name string) Edit { return Edit{op: "add-group", name: name} }

// AddMember adds a principal or a group (nested) to a group. Adding a
// group member that would create a membership cycle fails with
// ErrCycle; adding a present member changes nothing.
func AddMember(group, member string) Edit {
	return Edit{op: "add-member", group: group, name: member}
}

// RemoveMember removes a direct member (principal or group) from a
// group.
func RemoveMember(group, member string) Edit {
	return Edit{op: "remove-member", group: group, name: member}
}

// Apply runs edits as one published registry version and returns the
// version of the policy epoch (or, unattached, the registry version) it
// landed in: every reader observing that version or later sees every
// edit — for a RemoveMember, this is the revocation barrier callers pin
// audits to. The edits accumulate in a transaction over the published
// view, so a later edit sees the earlier ones (add a principal, then
// enrol it), and the successor view is derived once, whatever the
// number of edits.
//
// Apply is all-or-nothing: on the first failing edit the transaction is
// dropped, so the published state, the version and the next dense
// principal ID are untouched. An empty call is a no-op returning 0.
func (r *Registry) Apply(edits ...Edit) (uint64, error) {
	if len(edits) == 0 {
		return 0, nil
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	base := r.frozen.Load()
	next := *base
	next.version++
	t := &txn{base: base, next: &next, members: make(map[string]*memberSet), direct: make(map[*Principal]*idset.Set, len(edits))}
	for _, e := range edits {
		if err := t.apply(e); err != nil {
			return 0, err
		}
	}
	return r.publishLocked(t.commit()), nil
}

// txn derives the successor of one published view from an Apply's
// edits. It never writes what the base view shares: new principals go
// into a build of the base's name trie, a touched group's edits are
// kept beside its published record, and commit clones only the tables,
// row chunks and reverse-index rows it writes. Dropping a txn leaves no
// trace.
type txn struct {
	base, next *Frozen
	// names is the build of the principal name trie, started on the
	// first new principal.
	names *hamt.Builder[*Principal]
	// members holds the edits to the groups the call touched, new
	// groups included; commit merges each into a frozenGroup once.
	members map[string]*memberSet
	added   []string // new groups, in arrival order
	// direct holds the new direct-group sets of the principals the call
	// registered or whose direct memberships it edited.
	direct map[*Principal]*idset.Set
	// restructured records a new group or a subgroup edge added or
	// removed: the super sets must be recomputed.
	restructured bool
}

// memberSet is a touched group's direct membership during a txn: the
// published record (an empty one for a new group) and the call's edits
// to its lists, name -> present afterwards.
type memberSet struct {
	rec                   *frozenGroup
	principals, subgroups map[string]bool
}

// merged returns the sorted list with edits applied, and whether the
// edits changed it (list itself when they did not). It sorts the edited
// names and walks them beside list once.
func merged(list []string, edits map[string]bool) ([]string, bool) {
	if len(edits) == 0 {
		return list, false
	}
	names := make([]string, 0, len(edits))
	for name := range edits {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]string, 0, len(list)+len(names))
	changed, i := false, 0
	for _, name := range names {
		for i < len(list) && list[i] < name {
			out, i = append(out, list[i]), i+1
		}
		was := i < len(list) && list[i] == name
		if was {
			i++
		}
		if present := edits[name]; present {
			out = append(out, name)
			changed = changed || !was
		} else {
			changed = changed || was
		}
	}
	if !changed {
		return list, false
	}
	return append(out, list[i:]...), true
}

// apply applies one edit to the transaction. Caller holds writeMu.
func (t *txn) apply(e Edit) error {
	switch e.op {
	case "add-principal", "add-group":
		if err := validName(e.name); err != nil {
			return err
		}
		_, isP := t.principal(e.name)
		isG := t.hasGroup(e.name)
		if e.op == "add-group" {
			switch {
			case isG:
				return fmt.Errorf("%w: group %q", ErrExists, e.name)
			case isP:
				return fmt.Errorf("%w: %q is a principal", ErrExists, e.name)
			}
			t.members[e.name] = &memberSet{
				rec:        &frozenGroup{idx: len(t.base.groupNames) + len(t.added)},
				principals: make(map[string]bool),
				subgroups:  make(map[string]bool),
			}
			t.added = append(t.added, e.name)
			t.restructured = true
			return nil
		}
		switch {
		case e.class.Lattice() != t.base.reg.lat:
			return fmt.Errorf("%w: principal %q", ErrInvalidClass, e.name)
		case isP:
			return fmt.Errorf("%w: principal %q", ErrExists, e.name)
		case isG:
			return fmt.Errorf("%w: %q is a group", ErrExists, e.name)
		}
		if t.names == nil {
			t.names = t.base.principals.Edit()
		}
		p := &Principal{name: e.name, class: e.class, reg: t.base.reg, id: t.names.Len()}
		t.names.Put(p)
		t.direct[p] = nil
		return nil
	}
	g := t.group(e.group)
	if g == nil {
		return fmt.Errorf("%w: group %q", ErrNotFound, e.group)
	}
	p, isP := t.principal(e.name)
	list, edits := g.rec.principals, g.principals
	if !isP {
		list, edits = g.rec.subgroups, g.subgroups
	}
	present, edited := edits[e.name]
	if !edited {
		_, present = slices.BinarySearch(list, e.name)
	}
	if e.op == "remove-member" {
		if !present {
			return fmt.Errorf("%w: member %q of %q", ErrNotFound, e.name, e.group)
		}
		edits[e.name] = false
	} else {
		if !isP && !t.hasGroup(e.name) {
			return fmt.Errorf("%w: member %q", ErrNotFound, e.name)
		}
		if !isP && (e.name == e.group || t.reachable(e.name, e.group)) {
			return fmt.Errorf("%w: %q -> %q", ErrCycle, e.group, e.name)
		}
		if present {
			return nil
		}
		edits[e.name] = true
	}
	if !isP {
		t.restructured = true
		return nil
	}
	direct, owned := t.direct[p]
	if !owned {
		direct = t.base.row(p.id).direct
	}
	if e.op == "remove-member" {
		direct = direct.AndNot(idset.Of(g.rec.idx))
	} else {
		direct = direct.Or(idset.Of(g.rec.idx))
	}
	t.direct[p] = direct
	return nil
}

// principal returns the named principal as the transaction has it.
func (t *txn) principal(name string) (*Principal, bool) {
	if t.names != nil {
		return t.names.Get(name)
	}
	return t.base.principals.Get(name)
}

func (t *txn) hasGroup(name string) bool {
	_, touched := t.members[name]
	_, published := t.base.groups[name]
	return touched || published
}

// group returns the named group's member set, starting it from the
// base view's record on first touch; nil for an unknown group.
func (t *txn) group(name string) *memberSet {
	if ms, ok := t.members[name]; ok {
		return ms
	}
	g, ok := t.base.groups[name]
	if !ok {
		return nil
	}
	ms := &memberSet{rec: g, principals: make(map[string]bool), subgroups: make(map[string]bool)}
	t.members[name] = ms
	return ms
}

// reachable reports whether group "to" is reachable from group "from"
// through subgroup edges as the transaction has them.
func (t *txn) reachable(from, to string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(cur string) bool {
		if cur == to {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		rec, edits := t.base.groups[cur], map[string]bool(nil)
		if ms, ok := t.members[cur]; ok {
			rec, edits = ms.rec, ms.subgroups
		}
		subs, _ := merged(rec.subgroups, edits)
		return slices.ContainsFunc(subs, walk)
	}
	return walk(from)
}

// commit completes the successor view: it freezes the touched groups,
// recomputes the super sets if the group structure changed, and
// rewrites the rows of the principals whose membership can have moved —
// the ones the edits registered or enrolled, plus, after a structural
// change, the ones listed directly in a group whose super set changed.
// Each rewritten row moves its principal's ID in exactly the
// reverse-index rows whose membership changed, and each of those is
// rebuilt once.
func (t *txn) commit() *Frozen {
	f, base := t.next, t.base
	if t.names != nil {
		f.principals = t.names.Map()
	}
	if len(t.added) > 0 {
		f.groupNames = append(slices.Clip(base.groupNames), t.added...)
		f.groupMembers = append(slices.Clip(base.groupMembers), make([]*idset.Set, len(t.added))...)
	}
	if len(t.members) > 0 {
		f.groups = maps.Clone(base.groups)
		for name, ms := range t.members {
			ps, pMoved := merged(ms.rec.principals, ms.principals)
			subs, sMoved := merged(ms.rec.subgroups, ms.subgroups)
			// A group whose edits cancelled out keeps its record, so its
			// pointer still says "unchanged" (see ChangedGroups).
			if pMoved || sMoved || base.groups[name] == nil {
				f.groups[name] = &frozenGroup{idx: ms.rec.idx, principals: ps, subgroups: subs}
			}
		}
	}
	dirty := t.direct
	if t.restructured {
		f.super = f.closeSupers()
		for i, s := range f.super {
			if i < len(base.super) && s.Equal(base.super[i]) {
				// Rows holding the old set keep sharing it.
				f.super[i] = base.super[i]
				continue
			}
			for _, name := range f.groups[f.groupNames[i]].principals {
				p, _ := f.principals.Get(name)
				if _, ok := dirty[p]; !ok {
					dirty[p] = base.row(p.id).direct
				}
			}
		}
	}
	if len(dirty) == 0 {
		return f
	}
	f.rows = slices.Clone(base.rows)
	if len(t.added) == 0 {
		f.groupMembers = slices.Clone(base.groupMembers)
	}
	moved := rowEdits{rows: f.groupMembers, edits: make(map[int]*idset.Builder)}
	for p, direct := range dirty {
		var groups *idset.Set
		direct.Each(func(d int) { groups = groups.Or(f.super[d]) })
		var old *idset.Set // nil for a new principal
		if p.id < base.principals.Len() {
			row := base.row(p.id)
			if row.direct.Equal(direct) && row.groups.Equal(groups) {
				continue // edits that cancelled out keep the row
			}
			old = row.groups
			if groups.Equal(old) {
				groups = old
			}
		}
		if direct.Equal(groups) {
			direct = groups // one group, no supergroup: one set
		}
		old.AndNot(groups).Each(func(i int) { moved.flip(i, p.id, false) })
		groups.AndNot(old).Each(func(i int) { moved.flip(i, p.id, true) })
		f.setRow(base, memberRow{p: p, direct: direct, groups: groups})
	}
	moved.build()
	return f
}

// rowEdits collects, per reverse-index row (a group's bit position), the
// principal IDs a commit moves into or out of it, so each touched row is
// rebuilt once from its parent's row whatever order the IDs arrive in.
type rowEdits struct {
	rows  []*idset.Set // the commit's own copy of the rows
	edits map[int]*idset.Builder
}

// flip records principal id entering (on) or leaving row i.
func (m *rowEdits) flip(i, id int, on bool) {
	b := m.edits[i]
	if b == nil {
		b = idset.NewBuilder(m.rows[i])
		m.edits[i] = b
	}
	if on {
		b.Add(id)
	} else {
		b.Remove(id)
	}
}

// build rebuilds every touched row.
func (m *rowEdits) build() {
	for i, b := range m.edits {
		m.rows[i] = b.Build()
	}
}

// closeSupers computes the super sets of f's group structure: group i's
// set is its own bit plus the super sets of the groups listing i as a
// subgroup. Apply rejects cycles, so the memoized walk terminates.
func (f *Frozen) closeSupers() []*idset.Set {
	n := len(f.groupNames)
	up := make([][]int, n)
	for _, g := range f.groups {
		for _, sub := range g.subgroups {
			i := f.groups[sub].idx
			up[i] = append(up[i], g.idx)
		}
	}
	super := make([]*idset.Set, n)
	var superOf func(i int) *idset.Set
	superOf = func(i int) *idset.Set {
		if super[i] == nil {
			s := idset.Of(i)
			for _, u := range up[i] {
				s = s.Or(superOf(u))
			}
			super[i] = s
		}
		return super[i]
	}
	for i := range super {
		superOf(i)
	}
	return super
}

// AddGroups is Apply(AddGroup...); kept for bench/.
func (r *Registry) AddGroups(names ...string) error {
	edits := make([]Edit, len(names))
	for i, n := range names {
		edits[i] = AddGroup(n)
	}
	_, err := r.Apply(edits...)
	return err
}

// AddMemberships is Apply(AddMember...), groups in name order; kept for bench/.
func (r *Registry) AddMemberships(grants map[string][]string) (uint64, error) {
	gnames := make([]string, 0, len(grants))
	for g := range grants {
		gnames = append(gnames, g)
	}
	sort.Strings(gnames)
	var edits []Edit
	for _, g := range gnames {
		for _, m := range grants[g] {
			edits = append(edits, AddMember(g, m))
		}
	}
	return r.Apply(edits...)
}

// AddMemberAt is Apply(AddMember); kept for bench/.
func (r *Registry) AddMemberAt(group, member string) (uint64, error) {
	return r.Apply(AddMember(group, member))
}

// RemoveMemberAt is Apply(RemoveMember); kept for bench/.
func (r *Registry) RemoveMemberAt(group, member string) (uint64, error) {
	return r.Apply(RemoveMember(group, member))
}
