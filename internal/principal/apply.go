package principal

import (
	"fmt"
	"sort"

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

// AddGroup registers a new empty group. A new group shifts the frozen
// bit indices, so the publication carrying it is a full freeze.
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
// audits to. Each edit applies to the builder tables as they accumulate,
// so a later edit sees the earlier ones (add a principal, then enrol
// it). The closure is refrozen once, whatever the number of edits.
//
// Apply is all-or-nothing: on the first failing edit every earlier one
// is undone — dense principal IDs included — and the published state
// and version are untouched. An empty call is a no-op returning 0.
func (r *Registry) Apply(edits ...Edit) (uint64, error) {
	if len(edits) == 0 {
		return 0, nil
	}
	r.writeMu.Lock()
	if err := r.applyLocked(edits); err != nil {
		r.writeMu.Unlock()
		return 0, err
	}
	wait := r.publishLocked()
	r.writeMu.Unlock()
	return wait(), nil
}

// applyLocked applies edits to the builder tables, or none of them.
// Caller holds writeMu.
func (r *Registry) applyLocked(edits []Edit) error {
	type undo struct {
		e   Edit
		sub bool // the member edited is a group
	}
	var log []undo
	directMembers := r.directMembers
	for _, e := range edits {
		changed, sub, err := r.editLocked(e)
		if err == nil {
			if changed {
				log = append(log, undo{e, sub})
			}
			continue
		}
		for i := len(log) - 1; i >= 0; i-- {
			u := log[i]
			switch u.e.op {
			case "add-principal":
				delete(r.principals, u.e.name)
			case "add-group":
				delete(r.groups, u.e.name)
			default:
				set := r.groups[u.e.group].principals
				if u.sub {
					set = r.groups[u.e.group].subgroups
				}
				if u.e.op == "add-member" {
					delete(set, u.e.name)
				} else {
					set[u.e.name] = true
				}
			}
		}
		r.directMembers = directMembers
		// Every mutation publishes before releasing writeMu, so the dirty
		// state was empty when this call began; the undone edits leave it
		// empty again.
		clear(r.dirtyPrincipals)
		clear(r.dirtyGroups)
		r.dirtyAll = false
		return err
	}
	return nil
}

// editLocked applies one edit to the builder tables, marking dirty
// state. It reports whether the tables changed and whether the member
// edited is a group. Caller holds writeMu.
func (r *Registry) editLocked(e Edit) (changed, sub bool, err error) {
	switch e.op {
	case "add-principal", "add-group":
		if err := validName(e.name); err != nil {
			return false, false, err
		}
		_, isP := r.principals[e.name]
		_, isG := r.groups[e.name]
		if e.op == "add-group" {
			switch {
			case isG:
				return false, false, fmt.Errorf("%w: group %q", ErrExists, e.name)
			case isP:
				return false, false, fmt.Errorf("%w: %q is a principal", ErrExists, e.name)
			}
			r.groups[e.name] = &group{principals: make(map[string]bool), subgroups: make(map[string]bool)}
			r.dirtyAll = true
			return true, false, nil
		}
		switch {
		case e.class.Lattice() != r.lat:
			return false, false, fmt.Errorf("%w: principal %q", ErrInvalidClass, e.name)
		case isP:
			return false, false, fmt.Errorf("%w: principal %q", ErrExists, e.name)
		case isG:
			return false, false, fmt.Errorf("%w: %q is a group", ErrExists, e.name)
		}
		r.principals[e.name] = &Principal{name: e.name, class: e.class, reg: r, id: len(r.principals)}
		r.dirtyPrincipals[e.name] = true
		return true, false, nil
	}
	g, ok := r.groups[e.group]
	if !ok {
		return false, false, fmt.Errorf("%w: group %q", ErrNotFound, e.group)
	}
	_, isP := r.principals[e.name]
	sub = !isP
	set, delta := g.principals, 1
	if sub {
		set = g.subgroups
	}
	if e.op == "remove-member" {
		if !set[e.name] {
			return false, false, fmt.Errorf("%w: member %q of %q", ErrNotFound, e.name, e.group)
		}
		delete(set, e.name)
		delta = -1
	} else {
		if _, isG := r.groups[e.name]; sub && !isG {
			return false, false, fmt.Errorf("%w: member %q", ErrNotFound, e.name)
		}
		if sub && (e.name == e.group || r.reachableLocked(e.name, e.group)) {
			return false, false, fmt.Errorf("%w: %q -> %q", ErrCycle, e.group, e.name)
		}
		if set[e.name] {
			return false, sub, nil
		}
		set[e.name] = true
	}
	if sub {
		r.dirtyAll = true // subgroup edge: retained super sets are stale
	} else {
		r.directMembers += delta
		r.dirtyGroups[e.group] = true
		r.dirtyPrincipals[e.name] = true
	}
	return true, sub, nil
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
