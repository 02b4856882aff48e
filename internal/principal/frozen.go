package principal

import (
	"fmt"
	"slices"
	"sort"
)

// groupset is a bit vector over the frozen registry's group indices:
// bit i set means membership in the group with index i. Sets are built
// once at freeze time and never mutated, so testing membership is one
// bounds check and one AND — no locks, no lazy computation, no maps of
// maps.
type groupset []uint64

func newGroupset(n int) groupset { return make(groupset, (n+63)/64) }

func (s groupset) set(i int) { s[i/64] |= 1 << uint(i%64) }

// clear removes bit i if it is in range (a short set simply lacks it).
func (s groupset) clear(i int) {
	if w := i / 64; w < len(s) {
		s[w] &^= 1 << uint(i%64)
	}
}

// cloneGrown copies s into a fresh set wide enough to hold bit i.
func (s groupset) cloneGrown(i int) groupset {
	n := len(s)
	if need := i/64 + 1; need > n {
		n = need
	}
	out := make(groupset, n)
	copy(out, s)
	return out
}

func (s groupset) has(i int) bool {
	w := i / 64
	return w < len(s) && s[w]&(1<<uint(i%64)) != 0
}

// union folds o into s (same length by construction).
func (s groupset) union(o groupset) {
	for i, w := range o {
		s[i] |= w
	}
}

// rowChunkSize is the number of membership rows one copy-on-write
// chunk holds. A freeze that touches one principal clones that
// principal's chunk and the chunk directory, not a row per principal.
const rowChunkSize = 64

// memberRow is one principal's entry in the ID-ordered row table: the
// principal and its transitively closed group membership.
type memberRow struct {
	p      *Principal
	groups groupset
}

// rowChunk holds the rows of rowChunkSize consecutive principal IDs.
// A published chunk is immutable; a freeze clones the chunks it writes.
type rowChunk [rowChunkSize]memberRow

// frozenGroup is one group's direct membership as of the freeze.
type frozenGroup struct {
	principals []string // sorted
	subgroups  []string // sorted
}

// Frozen is one immutable version of the principal/group registry: the
// identity tables and the *transitively closed* group membership as of
// one publication. Every query on a Frozen is a pure lookup — the
// closure is precomputed into per-principal bitsets at freeze time, so
// IsMember costs two map probes and a bit test, with no locks and no
// memoization races.
//
// Frozen is the registry's contribution to a policy epoch (see
// names.Epoch): a reference monitor that pins an epoch evaluates every
// group-ACL entry against this closed membership, so a concurrent
// revocation can never split a decision — the decision sees wholly the
// pre-revocation or wholly the post-revocation registry.
//
// Frozen implements acl.Membership.
type Frozen struct {
	reg        *Registry
	version    uint64
	principals map[string]*Principal
	groups     map[string]*frozenGroup
	groupNames []string       // sorted; index = bit position
	groupIdx   map[string]int // name -> bit position

	// rows holds every principal's closed membership by dense ID, chunk
	// id/rowChunkSize, slot id%rowChunkSize. Chunks are copy-on-write:
	// an incremental freeze shares every chunk it does not write with
	// the previous view.
	rows []*rowChunk

	// groupMembers is the reverse index of rows: one bitset per
	// group (indexed like groupNames) whose bit p is set when the
	// principal with dense ID p is a transitive member. It is what lets
	// freeze-time ACL compilation turn a group entry into principal-ID
	// bits without touching names (see acl.IDResolver). Rows are
	// copy-on-write: an incremental freeze clones only the rows whose
	// member sets actually changed.
	groupMembers []groupset

	// super maps every group to the set of groups reachable from it
	// through "contained in" edges, itself included. It is the
	// intermediate of the transitive closure, retained so an
	// incremental freeze can recompute one principal's membership as a
	// union of supersets without re-walking the subgroup graph. Valid
	// for exactly this version's group structure: any structural change
	// (new group, subgroup edge added or removed) forces a full
	// rebuild.
	super map[string]groupset

	// deltaBase is the version this view was incrementally derived
	// from by cloning and patching only the touched principals' rows;
	// 0 means the closure was rebuilt from scratch. The name server's
	// epoch journal records it.
	deltaBase uint64
}

// Version returns the registry version this view was published as.
// Versions start at 1 and advance by one per mutation.
func (f *Frozen) Version() uint64 { return f.version }

// DeltaBase returns the version this view was incrementally derived
// from, or 0 if the membership closure was rebuilt from scratch.
func (f *Frozen) DeltaBase() uint64 { return f.deltaBase }

// Registry returns the registry this view was frozen from.
func (f *Frozen) Registry() *Registry { return f.reg }

// Principal looks up a principal by name.
func (f *Frozen) Principal(name string) (*Principal, error) {
	p, ok := f.principals[name]
	if !ok {
		return nil, fmt.Errorf("%w: principal %q", ErrNotFound, name)
	}
	return p, nil
}

// HasPrincipal reports whether the named principal exists in this
// version.
func (f *Frozen) HasPrincipal(name string) bool {
	_, ok := f.principals[name]
	return ok
}

// HasGroup reports whether the named group exists in this version.
func (f *Frozen) HasGroup(name string) bool {
	_, ok := f.groups[name]
	return ok
}

// Principals returns all principal names, sorted.
func (f *Frozen) Principals() []string {
	out := make([]string, 0, len(f.principals))
	for n := range f.principals {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Groups returns all group names, sorted.
func (f *Frozen) Groups() []string {
	return append([]string(nil), f.groupNames...)
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
// index probe, one closure probe, one bit test.
//
// IsMember's (subject, group) signature satisfies acl.Membership, so a
// pinned Frozen can drive ACL evaluation directly.
func (f *Frozen) IsMember(principalName, groupName string) bool {
	idx, ok := f.groupIdx[groupName]
	if !ok {
		return false
	}
	return f.groupsOf(principalName).has(idx)
}

// PrincipalID returns the dense, append-only ID of the named principal.
// IDs are assigned in arrival order at registration and never reused or
// reassigned, so an ID obtained from any frozen version names the same
// principal in every other version that contains it. Together with
// GroupPrincipalIDs and NumPrincipalIDs this satisfies acl.IDResolver.
func (f *Frozen) PrincipalID(name string) (int, bool) {
	p, ok := f.principals[name]
	if !ok {
		return 0, false
	}
	return p.id, true
}

// NumPrincipalIDs reports how many principal IDs this version has
// allocated; IDs are dense in 0..N-1.
func (f *Frozen) NumPrincipalIDs() int { return len(f.principals) }

// GroupPrincipalIDs returns the transitive member set of the named
// group as bitset words over principal IDs (bit p == principal with ID
// p), nil for an unknown group. The returned words are shared with the
// frozen view and must not be mutated.
func (f *Frozen) GroupPrincipalIDs(group string) []uint64 {
	idx, ok := f.groupIdx[group]
	if !ok || idx >= len(f.groupMembers) {
		return nil
	}
	return f.groupMembers[idx]
}

// row returns the row of the principal with dense ID id; the caller
// guarantees the ID is allocated in this version.
func (f *Frozen) row(id int) *memberRow {
	return &f.rows[id/rowChunkSize][id%rowChunkSize]
}

// groupsOf returns the named principal's closed membership, nil for an
// unknown principal.
func (f *Frozen) groupsOf(principalName string) groupset {
	p, ok := f.principals[principalName]
	if !ok {
		return nil
	}
	return f.row(p.id).groups
}

// setRow installs p's row, cloning its chunk on the version's first
// write to it (a chunk beyond prev's table is already fresh). The
// caller has given f its own chunk directory.
func (f *Frozen) setRow(prev *Frozen, p *Principal, groups groupset) {
	c := p.id / rowChunkSize
	for len(f.rows) <= c {
		f.rows = append(f.rows, new(rowChunk))
	}
	if c < len(prev.rows) && f.rows[c] == prev.rows[c] {
		cp := *f.rows[c]
		f.rows[c] = &cp
	}
	f.rows[c][p.id%rowChunkSize] = memberRow{p: p, groups: groups}
}

// PrincipalsFrom returns the principals with dense ID id and up, in ID
// order: what this version registered since a version that had
// allocated id IDs. A replication delta lists exactly these.
func (f *Frozen) PrincipalsFrom(id int) []*Principal {
	n := len(f.principals)
	if id >= n {
		return nil
	}
	out := make([]*Principal, 0, n-id)
	for ; id < n; id++ {
		out = append(out, f.row(id).p)
	}
	return out
}

// ChangedGroups returns, in name order, the groups whose direct-member
// lists differ from prev's, new groups included (every group when prev
// is nil). Group records are copy-on-write, so an untouched group keeps
// prev's record and costs one pointer comparison; a fresh record is
// confirmed by comparing the lists, because a full freeze re-freezes
// every record whether it changed or not.
func (f *Frozen) ChangedGroups(prev *Frozen) []string {
	var out []string
	for _, name := range f.groupNames {
		g := f.groups[name]
		var pg *frozenGroup
		if prev != nil {
			pg = prev.groups[name]
		}
		if pg == g || pg != nil && slices.Equal(pg.principals, g.principals) && slices.Equal(pg.subgroups, g.subgroups) {
			continue
		}
		out = append(out, name)
	}
	return out
}

// GroupsOf returns every group the principal transitively belongs to,
// sorted.
func (f *Frozen) GroupsOf(principalName string) []string {
	set := f.groupsOf(principalName)
	var out []string
	for i, name := range f.groupNames {
		if set.has(i) {
			out = append(out, name)
		}
	}
	return out // groupNames is sorted, so out is too
}
