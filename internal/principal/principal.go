// Package principal manages the individuals and groups the paper's
// discretionary access control is expressed over (§2.1), plus the
// minimal authentication stub the model needs to attribute extensions to
// principals. The paper declares authentication itself out of scope; the
// stub exists only so loading an extension can name a responsible
// principal.
//
// Every principal carries a default security class (§2.2: "threads of
// control ... function at the same security class as the associated
// principal"); the reference monitor stamps that class onto the
// principal's subjects.
//
// Concurrency design (build-then-freeze): the registry's queryable
// state is an immutable Frozen value — identity tables plus the
// transitively closed group membership, precomputed into per-principal
// bitsets — published through one atomic pointer. Readers load the
// current Frozen and perform pure lookups with zero locks; writers
// serialize on a writer-only mutex, mutate the private builder tables,
// and publish a successor version. The publish hook hands each new
// Frozen to the name server, which folds it into the next policy epoch,
// so a membership revocation reaches every future access decision in
// one atomic publication.
package principal

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"secext/internal/lattice"
)

// Errors returned by the registry.
var (
	ErrExists       = errors.New("principal: already exists")
	ErrNotFound     = errors.New("principal: not found")
	ErrCycle        = errors.New("principal: group membership cycle")
	ErrBadToken     = errors.New("principal: invalid authentication token")
	ErrInvalidClass = errors.New("principal: class from wrong lattice")
	ErrBadName      = errors.New("principal: invalid name")
)

// Principal is an individual subject identity. Principals satisfy
// acl.Subject. A Principal is immutable; the same value is shared by
// every frozen registry version that contains it.
type Principal struct {
	name  string
	class lattice.Class
	reg   *Registry

	// id is the principal's dense, append-only ID: assigned in arrival
	// order at registration, never reused (there is no principal
	// removal). Freeze-time ACL compilation indexes its bitsets by this
	// ID, and the stability guarantee is what lets compiled summaries
	// that name only individuals survive registry transitions.
	id int
}

// SubjectName returns the principal's unique name.
func (p *Principal) SubjectName() string { return p.name }

// ID returns the principal's dense, append-only ID (see the field
// comment: arrival-ordered, stable across every registry version).
func (p *Principal) ID() int { return p.id }

// Class returns the principal's default security class.
func (p *Principal) Class() lattice.Class { return p.class }

// MemberOf reports whether the principal is a transitive member of the
// named group, as of the registry's current frozen version. Decisions
// that must be atomic against concurrent membership edits go through a
// pinned Frozen (the policy epoch) instead.
func (p *Principal) MemberOf(group string) bool {
	return p.reg.Freeze().IsMember(p.name, group)
}

// Groups returns the names of all groups the principal transitively
// belongs to, sorted.
func (p *Principal) Groups() []string {
	return p.reg.Freeze().GroupsOf(p.name)
}

func (p *Principal) String() string {
	return fmt.Sprintf("%s@%s", p.name, p.class)
}

// group is the builder-side form of a named set of member principals
// and nested member groups. Only writers touch it, under writeMu.
type group struct {
	principals map[string]bool
	subgroups  map[string]bool
}

// Registry is the authoritative store of principals, groups, and group
// membership. It is safe for concurrent use: reads are lock-free
// lookups on the current Frozen; mutations serialize on a writer-only
// mutex and publish a successor Frozen with the closure recomputed.
type Registry struct {
	// frozen is the atomically published current view.
	frozen  atomic.Pointer[Frozen]
	writeMu sync.Mutex

	lat    *lattice.Lattice
	secret []byte

	// Builder state; only writers touch it, under writeMu.
	principals map[string]*Principal
	groups     map[string]*group

	// Dirty state since the last freeze; only writers touch it, under
	// writeMu. dirtyPrincipals names principals whose membership rows
	// must be recomputed, dirtyGroups names groups whose direct-member
	// lists changed, and dirtyAll forces a full rebuild (set by any
	// structural change — a new group shifts bit indices, a subgroup
	// edge invalidates the retained super sets).
	dirtyPrincipals map[string]bool
	dirtyGroups     map[string]bool
	dirtyAll        bool

	// incremental enables the delta freeze path (default on);
	// SetIncrementalFreeze turns it off for experiments that price the
	// full closure rebuild.
	incremental bool

	// directMembers counts direct principal→group membership edges in
	// the builder tables. Freeze-time closure recomputation picks between
	// walking the dirty principals (cost dirty×groups) and walking the
	// membership edges (cost directMembers) by comparing the two; without
	// the counter a bulk grant over the whole population would cost
	// principals×groups hash probes. Only writers touch it, under writeMu.
	directMembers int

	// fullFreezes and incFreezes count how each published Frozen was
	// built; experiments and tests read them through FreezeStats.
	fullFreezes atomic.Uint64
	incFreezes  atomic.Uint64

	// onPublish, when set, receives every newly published Frozen,
	// makes it live in the receiver's published state, and returns the
	// version it landed in. The reference monitor wires it to the name
	// server's epoch publisher, so a membership edit lands in the policy
	// epoch — and kills every cached verdict — before the editor
	// regains control. Guarded by writeMu.
	onPublish func(*Frozen) uint64
}

// NewRegistry creates an empty registry whose principals carry classes
// from lat.
func NewRegistry(lat *lattice.Lattice) *Registry {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		// crypto/rand failure means the platform entropy source is
		// broken; tokens would be forgeable, so refuse to continue.
		panic("principal: cannot read entropy: " + err.Error())
	}
	r := &Registry{
		lat:             lat,
		principals:      make(map[string]*Principal),
		groups:          make(map[string]*group),
		secret:          secret,
		dirtyPrincipals: make(map[string]bool),
		dirtyGroups:     make(map[string]bool),
		incremental:     true,
	}
	r.frozen.Store(r.buildFrozen(1))
	return r
}

// Lattice returns the lattice principals of this registry label against.
func (r *Registry) Lattice() *lattice.Lattice { return r.lat }

// Freeze returns the currently published registry view: one atomic
// load, no locks. The returned view is immutable and stays valid
// forever; pin it to evaluate several membership questions against one
// version of the registry.
func (r *Registry) Freeze() *Frozen { return r.frozen.Load() }

// Version returns the current registry version (1 when empty, +1 per
// mutation).
func (r *Registry) Version() uint64 { return r.frozen.Load().version }

// SetPublishHook installs a function that receives every newly
// published Frozen view, makes it live downstream, and returns the
// downstream version. The reference monitor wires it to the name
// server's epoch publisher; a nil hook clears it. The hook runs with
// the writer mutex held, so publications reach it in version order.
func (r *Registry) SetPublishHook(fn func(*Frozen) uint64) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.onPublish = fn
}

// SetIncrementalFreeze enables or disables the delta freeze path.
// Incremental freezing is on by default; experiments turn it off to
// price the full closure rebuild against the patched one. Turning it
// back on is always safe: dirty tracking runs regardless, so the next
// freeze patches against an accurate baseline.
func (r *Registry) SetIncrementalFreeze(on bool) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.incremental = on
}

// FreezeStats reports how published views were built since boot.
type FreezeStats struct {
	Full        uint64 // closure rebuilt from scratch
	Incremental uint64 // previous view cloned and patched
}

// FreezeCounts returns the full/incremental freeze counters.
func (r *Registry) FreezeCounts() FreezeStats {
	return FreezeStats{Full: r.fullFreezes.Load(), Incremental: r.incFreezes.Load()}
}

// Touch republishes the registry's current state as a new version — a
// typed no-op mutation. Experiments use it to drive epoch-invalidation
// storms without growing the registry.
func (r *Registry) Touch() {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.publishLocked()
}

// publishLocked freezes the builder tables into a successor view at
// version+1, publishes it, and returns the version of the downstream
// policy epoch carrying the view (or the registry's own version when no
// hook is attached). Caller holds writeMu.
func (r *Registry) publishLocked() uint64 {
	next := r.freezeLocked(r.frozen.Load().version + 1)
	r.frozen.Store(next)
	clear(r.dirtyPrincipals)
	clear(r.dirtyGroups)
	r.dirtyAll = false
	if r.onPublish != nil {
		return r.onPublish(next)
	}
	return next.version
}

// freezeLocked builds the successor view, patching the previous one
// when only membership rows changed (the common churn case) and
// falling back to a full rebuild on structural change. Caller holds
// writeMu.
func (r *Registry) freezeLocked(version uint64) *Frozen {
	prev := r.frozen.Load()
	if !r.incremental || r.dirtyAll || prev == nil {
		r.fullFreezes.Add(1)
		return r.buildFrozen(version)
	}
	r.incFreezes.Add(1)
	// Start as a shallow copy sharing every table with prev; clone only
	// the maps that have dirty entries. The group universe (names,
	// indices, super sets) is untouched by construction — any change to
	// it sets dirtyAll above.
	f := &Frozen{
		reg:          r,
		version:      version,
		deltaBase:    prev.version,
		principals:   prev.principals,
		groups:       prev.groups,
		groupNames:   prev.groupNames,
		groupIdx:     prev.groupIdx,
		rows:         prev.rows,
		groupMembers: prev.groupMembers,
		super:        prev.super,
	}
	if len(r.dirtyGroups) > 0 {
		f.groups = maps.Clone(prev.groups)
		for gname := range r.dirtyGroups {
			f.groups[gname] = freezeGroup(r.groups[gname])
		}
	}
	if len(r.dirtyPrincipals) > 0 {
		f.rows = slices.Clone(prev.rows)
		dirtySets := make(map[string]groupset, len(r.dirtyPrincipals))
		for pname := range r.dirtyPrincipals {
			if _, known := prev.principals[pname]; !known {
				if len(f.principals) == len(prev.principals) { // still prev's map
					f.principals = maps.Clone(prev.principals)
				}
				f.principals[pname] = r.principals[pname]
			}
			dirtySets[pname] = newGroupset(len(f.groupNames))
		}
		// Recompute each dirty principal's closed membership as the union
		// of super sets of the groups that list it directly — identical
		// to the full rebuild's step. Two walk orders compute the same
		// rows at different cost: per-principal costs dirty×groups hash
		// probes, per-edge costs one probe per direct membership. Pick
		// the cheaper one, so a single-principal churn stays O(G) and a
		// bulk grant over the whole population stays O(edges).
		if len(dirtySets)*len(r.groups) > r.directMembers {
			for gname, g := range r.groups {
				s := f.super[gname]
				for pname := range g.principals {
					if set, dirty := dirtySets[pname]; dirty {
						set.union(s)
					}
				}
			}
		} else {
			for pname, set := range dirtySets {
				for gname, g := range r.groups {
					if g.principals[pname] {
						set.union(f.super[gname])
					}
				}
			}
		}

		// Install the rows and patch the reverse index: for each dirty
		// principal, flip its ID bit in exactly the groups whose
		// membership changed. Rows and reverse-index rows are
		// copy-on-write — untouched ones keep sharing prev's, and each
		// is cloned at most once per freeze.
		rowFresh := make(map[int]bool)
		for pname, neu := range dirtySets {
			p := r.principals[pname]
			var old groupset // nil for a new principal
			if p.id < len(prev.principals) {
				old = prev.row(p.id).groups
			}
			f.setRow(prev, p, neu)
			for i := range f.groupNames {
				was, is := old.has(i), neu.has(i)
				if was == is {
					continue
				}
				if !rowFresh[i] {
					if len(rowFresh) == 0 {
						f.groupMembers = slices.Clone(prev.groupMembers)
					}
					f.groupMembers[i] = f.groupMembers[i].cloneGrown(p.id)
					rowFresh[i] = true
				} else if p.id/64 >= len(f.groupMembers[i]) {
					f.groupMembers[i] = f.groupMembers[i].cloneGrown(p.id)
				}
				if is {
					f.groupMembers[i].set(p.id)
				} else {
					f.groupMembers[i].clear(p.id)
				}
			}
		}
	}
	return f
}

// buildFrozen snapshots the builder tables into an immutable view with
// the transitive closure precomputed. Group bit indices follow sorted
// group-name order, so equal registries freeze identically.
func (r *Registry) buildFrozen(version uint64) *Frozen {
	f := &Frozen{
		reg:        r,
		version:    version,
		principals: maps.Clone(r.principals),
		groups:     make(map[string]*frozenGroup, len(r.groups)),
		groupNames: make([]string, 0, len(r.groups)),
		groupIdx:   make(map[string]int, len(r.groups)),
		rows:       make([]*rowChunk, (len(r.principals)+rowChunkSize-1)/rowChunkSize),
	}
	f.groups = f.collectGroups(r.groups)
	sort.Strings(f.groupNames)
	for i, n := range f.groupNames {
		f.groupIdx[n] = i
	}

	// Transitive closure. up[g] lists the groups that directly contain
	// group g as a subgroup; super(g) is the set of groups reachable
	// from g through up-edges, including g itself. A principal's
	// closure is the union of super(g) over every group g that lists it
	// directly. AddMember guarantees the subgroup graph is acyclic, so
	// the memoized walk terminates.
	up := make(map[string][]string, len(r.groups))
	for name, g := range r.groups {
		for sub := range g.subgroups {
			up[sub] = append(up[sub], name)
		}
	}
	super := make(map[string]groupset, len(r.groups))
	var superOf func(name string) groupset
	superOf = func(name string) groupset {
		if s, ok := super[name]; ok {
			return s
		}
		s := newGroupset(len(f.groupNames))
		s.set(f.groupIdx[name])
		super[name] = s // memoize before recursing (acyclic, but cheap insurance)
		for _, parent := range up[name] {
			s.union(superOf(parent))
		}
		return s
	}
	// Materialize super for every group, not just the ones principals
	// sit in: the retained table is what lets the next freeze patch a
	// touched principal's row without re-walking the subgroup graph.
	for gname := range r.groups {
		superOf(gname)
	}
	f.super = super
	// Per-principal closure = union of super sets over the groups that
	// list the principal directly. Walk the membership *edges* rather
	// than the principals×groups cross product: the edge walk costs
	// O(direct memberships), where the cross product is O(P·G) hash
	// probes — the difference between seconds and milliseconds at the
	// 10^5-principal scale bench-load builds.
	for i := range f.rows {
		f.rows[i] = new(rowChunk)
	}
	for _, p := range r.principals {
		*f.row(p.id) = memberRow{p: p, groups: newGroupset(len(f.groupNames))}
	}
	for gname, g := range r.groups {
		s := super[gname]
		for pname := range g.principals {
			f.groupsOf(pname).union(s)
		}
	}
	// Reverse index: per-group bitsets over principal IDs. Built by
	// transposing the per-principal closure rows just computed.
	f.groupMembers = make([]groupset, len(f.groupNames))
	for i := range f.groupMembers {
		f.groupMembers[i] = newGroupset(len(r.principals))
	}
	for id := 0; id < len(r.principals); id++ {
		set := f.row(id).groups
		for i := range f.groupNames {
			if set.has(i) {
				f.groupMembers[i].set(id)
			}
		}
	}
	return f
}

// freezeGroup converts one builder group to its frozen (sorted) form.
func freezeGroup(g *group) *frozenGroup {
	fg := &frozenGroup{
		principals: make([]string, 0, len(g.principals)),
		subgroups:  make([]string, 0, len(g.subgroups)),
	}
	for p := range g.principals {
		fg.principals = append(fg.principals, p)
	}
	for s := range g.subgroups {
		fg.subgroups = append(fg.subgroups, s)
	}
	sort.Strings(fg.principals)
	sort.Strings(fg.subgroups)
	return fg
}

// collectGroups converts builder groups to their frozen form, filling
// f.groupNames as a side effect.
func (f *Frozen) collectGroups(groups map[string]*group) map[string]*frozenGroup {
	out := make(map[string]*frozenGroup, len(groups))
	for name, g := range groups {
		out[name] = freezeGroup(g)
		f.groupNames = append(f.groupNames, name)
	}
	return out
}

func validName(name string) error {
	if name == "" || name == "*" || strings.ContainsAny(name, "@ \t\n;/") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Principal looks up a principal by name.
func (r *Registry) Principal(name string) (*Principal, error) {
	return r.frozen.Load().Principal(name)
}

// Principals returns all principal names, sorted.
func (r *Registry) Principals() []string {
	return r.frozen.Load().Principals()
}

// Groups returns all group names, sorted.
func (r *Registry) Groups() []string {
	return r.frozen.Load().Groups()
}

// reachableLocked reports whether group "to" is reachable from group
// "from" through subgroup edges. Caller holds writeMu.
func (r *Registry) reachableLocked(from, to string) bool {
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
		g, ok := r.groups[cur]
		if !ok {
			return false
		}
		for sub := range g.subgroups {
			if walk(sub) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// IsMember reports whether the named principal is a transitive member of
// the named group in the current frozen version. Unknown principals or
// groups are simply not members.
func (r *Registry) IsMember(principalName, groupName string) bool {
	return r.frozen.Load().IsMember(principalName, groupName)
}

// Members returns the direct members of a group: principal names and
// group names (prefixed "@"), sorted.
func (r *Registry) Members(groupName string) ([]string, error) {
	return r.frozen.Load().Members(groupName)
}

// IssueToken mints an authentication token for a registered principal.
// Tokens are HMAC-SHA256 over the principal name with a per-registry
// secret — a stand-in for whatever real authentication (certificates,
// signed code) a deployment would use.
func (r *Registry) IssueToken(name string) (string, error) {
	if _, err := r.Principal(name); err != nil {
		return "", err
	}
	mac := hmac.New(sha256.New, r.secret)
	mac.Write([]byte(name))
	sum := mac.Sum(nil)
	return name + "." + base64.RawURLEncoding.EncodeToString(sum), nil
}

// Authenticate verifies a token and returns the principal it names.
func (r *Registry) Authenticate(token string) (*Principal, error) {
	i := strings.LastIndexByte(token, '.')
	if i < 0 {
		return nil, ErrBadToken
	}
	name, sig := token[:i], token[i+1:]
	want, err := base64.RawURLEncoding.DecodeString(sig)
	if err != nil {
		return nil, ErrBadToken
	}
	mac := hmac.New(sha256.New, r.secret)
	mac.Write([]byte(name))
	if !hmac.Equal(mac.Sum(nil), want) {
		return nil, ErrBadToken
	}
	return r.Principal(name)
}

// TokenSecret returns a copy of the per-registry token-signing secret.
// Host-privileged: replication uses it so a replica registry can verify
// tokens the primary issued; nothing else should read it.
func (r *Registry) TokenSecret() []byte {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	return append([]byte(nil), r.secret...)
}

// SetTokenSecret replaces the token-signing secret, so primary-issued
// tokens authenticate against this registry. Host-privileged, bootstrap
// only: call before the registry serves concurrent Authenticate traffic
// (a replica installs the primary's secret while replaying the initial
// snapshot, before it accepts clients).
func (r *Registry) SetTokenSecret(secret []byte) error {
	if len(secret) < 16 {
		return fmt.Errorf("principal: token secret too short (%d bytes)", len(secret))
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.secret = append([]byte(nil), secret...)
	return nil
}
