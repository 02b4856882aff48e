package principal

import (
	"fmt"
	"slices"
	"sort"

	"secext/internal/hamt"
	"secext/internal/idset"
)

// rowChunkSize is the number of membership rows one copy-on-write
// chunk holds. A transition that touches one principal clones that
// principal's chunk and the chunk directory, not a row per principal.
const rowChunkSize = 64

// memberRow is one principal's entry in the ID-ordered row table: the
// principal, the bit positions of the groups that list it directly, and
// its transitively closed membership — the union of super[d] over its
// direct groups d. A principal whose closure is one group's super set
// holds that set.
type memberRow struct {
	p      *Principal
	direct *idset.Set
	groups *idset.Set
}

// rowChunk holds the rows of rowChunkSize consecutive principal IDs.
// A published chunk is immutable; a transition clones the chunks it
// writes.
type rowChunk [rowChunkSize]memberRow

// frozenGroup is one group as of a version: its bit position and its
// direct membership. A published record is immutable; a transition
// that changes a group's members replaces its record.
type frozenGroup struct {
	// idx is the group's bit position: assigned in arrival order, never
	// reused (there is no group removal), so a new group moves no row.
	idx        int
	principals []string // sorted
	subgroups  []string // sorted
}

// Frozen is one immutable version of the principal/group registry: the
// identity tables and the *transitively closed* group membership as of
// one publication. Every query on a Frozen is a pure lookup — the
// closure is precomputed into per-principal sets of group positions
// when the version is derived, so IsMember costs two probes and a set
// test, with no locks and no memoization races.
//
// Frozen is the registry's contribution to a policy epoch (see
// names.Epoch): a reference monitor that pins an epoch evaluates every
// group-ACL entry against this closed membership, so a concurrent
// revocation can never split a decision — the decision sees wholly the
// pre-revocation or wholly the post-revocation registry.
//
// Frozen implements acl.Membership.
type Frozen struct {
	reg     *Registry
	version uint64
	// principals maps each name to its principal. It is a persistent
	// trie, so a new principal copies the few nodes on its path, not the
	// whole table.
	principals hamt.Map[*Principal]
	groups     map[string]*frozenGroup
	groupNames []string // arrival order; index = bit position

	// rows holds every principal's membership by dense ID, chunk
	// id/rowChunkSize, slot id%rowChunkSize. Chunks are copy-on-write:
	// a version shares every chunk it does not write with its
	// predecessor.
	rows []*rowChunk

	// groupMembers is the reverse index of rows: one set per group
	// (indexed by bit position) holding the dense IDs of its transitive
	// members. It is what lets freeze-time ACL compilation turn a group
	// entry into principal IDs without touching names (see
	// acl.IDResolver). Rows are copy-on-write: a version rebuilds only
	// the rows whose member sets changed, each once, and an unchanged
	// row keeps its pointer.
	groupMembers []*idset.Set

	// super holds, per group bit position, the set of groups reachable
	// from that group through "contained in" edges, itself included. It
	// is the intermediate of the transitive closure, retained so a
	// transition recomputes a principal's row as a union of supersets
	// without re-walking the subgroup graph. Only a new group or an
	// added or removed subgroup edge replaces it.
	super []*idset.Set
}

// Version returns the registry version this view was published as.
// Versions start at 1 and advance by one per mutation.
func (f *Frozen) Version() uint64 { return f.version }

// Registry returns the registry this view was frozen from.
func (f *Frozen) Registry() *Registry { return f.reg }

// Principal looks up a principal by name.
func (f *Frozen) Principal(name string) (*Principal, error) {
	p, ok := f.principals.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: principal %q", ErrNotFound, name)
	}
	return p, nil
}

// HasPrincipal reports whether the named principal exists in this
// version.
func (f *Frozen) HasPrincipal(name string) bool {
	_, ok := f.principals.Get(name)
	return ok
}

// HasGroup reports whether the named group exists in this version.
func (f *Frozen) HasGroup(name string) bool {
	_, ok := f.groups[name]
	return ok
}

// Principals returns all principal names, sorted.
func (f *Frozen) Principals() []string {
	out := make([]string, 0, f.principals.Len())
	f.principals.Range(func(p **Principal) bool {
		out = append(out, (*p).name)
		return true
	})
	sort.Strings(out)
	return out
}

// Groups returns all group names, sorted.
func (f *Frozen) Groups() []string {
	out := slices.Clone(f.groupNames)
	sort.Strings(out)
	return out
}

// Members returns the direct members of a group: principal names and
// group names (prefixed "@"), sorted.
func (f *Frozen) Members(groupName string) ([]string, error) {
	g, ok := f.groups[groupName]
	if !ok {
		return nil, fmt.Errorf("%w: group %q", ErrNotFound, groupName)
	}
	out := make([]string, 0, len(g.principals)+len(g.subgroups))
	out = append(out, g.principals...)
	for _, s := range g.subgroups {
		out = append(out, "@"+s)
	}
	sort.Strings(out)
	return out, nil
}

// IsMember reports whether the named principal is a transitive member
// of the named group in this version of the registry. Unknown
// principals or groups are simply not members. The query is pure: one
// index probe, one closure probe, one set test.
//
// IsMember's (subject, group) signature satisfies acl.Membership, so a
// pinned Frozen can drive ACL evaluation directly.
func (f *Frozen) IsMember(principalName, groupName string) bool {
	g, ok := f.groups[groupName]
	if !ok {
		return false
	}
	return f.groupsOf(principalName).Has(g.idx)
}

// PrincipalID returns the dense, append-only ID of the named principal.
// IDs are assigned in arrival order at registration and never reused or
// reassigned, so an ID obtained from any frozen version names the same
// principal in every other version that contains it. Together with
// GroupPrincipalIDs and NumPrincipalIDs this satisfies acl.IDResolver.
func (f *Frozen) PrincipalID(name string) (int, bool) {
	p, ok := f.principals.Get(name)
	if !ok {
		return 0, false
	}
	return p.id, true
}

// IDOf returns p's dense ID when p is the principal this version
// registered under that ID: one bounds check and one pointer compare,
// with no name lookup. A principal of another registry, or one this
// version does not have yet, is not confirmed; callers holding only
// its name use PrincipalID.
func (f *Frozen) IDOf(p *Principal) (int, bool) {
	if p.id < f.principals.Len() && f.row(p.id).p == p {
		return p.id, true
	}
	return 0, false
}

// NumPrincipalIDs reports how many principal IDs this version has
// allocated; IDs are dense in 0..N-1. It reads the name trie's count.
func (f *Frozen) NumPrincipalIDs() int { return f.principals.Len() }

// GroupPrincipalIDs returns the transitive member set of the named
// group over principal IDs, nil for an unknown or empty group. The set
// is the frozen view's own: every call on this version returns it, and
// a later version returns the same pointer until the group's members
// change.
func (f *Frozen) GroupPrincipalIDs(group string) *idset.Set {
	g, ok := f.groups[group]
	if !ok {
		return nil
	}
	return f.groupMembers[g.idx]
}

// row returns the row of the principal with dense ID id; the caller
// guarantees the ID is allocated in this version.
func (f *Frozen) row(id int) *memberRow {
	return &f.rows[id/rowChunkSize][id%rowChunkSize]
}

// groupsOf returns the named principal's closed membership, nil for an
// unknown principal.
func (f *Frozen) groupsOf(principalName string) *idset.Set {
	p, ok := f.principals.Get(principalName)
	if !ok {
		return nil
	}
	return f.row(p.id).groups
}

// setRow installs p's row, cloning its chunk on the version's first
// write to it (a chunk beyond prev's table is already fresh). The
// caller has given f its own chunk directory.
func (f *Frozen) setRow(prev *Frozen, row memberRow) {
	p := row.p
	c := p.id / rowChunkSize
	for len(f.rows) <= c {
		f.rows = append(f.rows, new(rowChunk))
	}
	if c < len(prev.rows) && f.rows[c] == prev.rows[c] {
		cp := *f.rows[c]
		f.rows[c] = &cp
	}
	f.rows[c][p.id%rowChunkSize] = row
}

// PrincipalsFrom returns the principals with dense ID id and up, in ID
// order: what this version registered since a version that had
// allocated id IDs. A replication delta lists exactly these.
func (f *Frozen) PrincipalsFrom(id int) []*Principal {
	n := f.principals.Len()
	if id >= n {
		return nil
	}
	out := make([]*Principal, 0, n-id)
	for ; id < n; id++ {
		out = append(out, f.row(id).p)
	}
	return out
}

// ChangedGroups returns, in name order, the groups whose records
// differ from prev's, new groups included (every group when prev is
// nil). Group records are copy-on-write and a transition replaces only
// the records whose member lists it changed, so each group costs one
// pointer comparison.
func (f *Frozen) ChangedGroups(prev *Frozen) []string {
	var out []string
	for name, g := range f.groups {
		if prev == nil || prev.groups[name] != g {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// GroupsOf returns every group the principal transitively belongs to,
// sorted.
func (f *Frozen) GroupsOf(principalName string) []string {
	var out []string
	f.groupsOf(principalName).Each(func(i int) { out = append(out, f.groupNames[i]) })
	sort.Strings(out)
	return out
}
