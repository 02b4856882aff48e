package acl

import (
	"math/bits"

	"secext/internal/idset"
)

// This file implements freeze-time ACL compilation: an immutable
// Summary that answers the deny-overrides decision of GrantedIn with a
// few set probes over dense principal IDs instead of iterating the
// entry list and resolving group membership per request. Summaries are
// built once per published policy epoch (the registry and ACL are both
// frozen at that point) and shared by every reader of that epoch.

// IDResolver maps principal and group names to the dense, append-only
// principal-ID space of a frozen registry. The principal package's
// Frozen registry satisfies it. An unknown name yields (0, false) /
// nil.
type IDResolver interface {
	// PrincipalID returns the dense ID of the named principal.
	PrincipalID(name string) (int, bool)
	// GroupPrincipalIDs returns the transitive member set of the named
	// group over principal IDs, nil if unknown or empty. One registry
	// version returns the same set on every call: a summary whose
	// per-mode set is exactly that group's closure holds it, not a copy.
	GroupPrincipalIDs(group string) *idset.Set
	// NumPrincipalIDs reports how many principal IDs are allocated
	// (IDs are 0..N-1).
	NumPrincipalIDs() int
}

// Summary is the compiled form of an ACL against one frozen registry:
// per-mode allow and deny sets of principal IDs, with Everyone
// entries folded into mode masks. A Summary reproduces GrantedIn's
// deny-overrides verdict exactly for every principal that has an ID in
// the registry it was compiled against.
//
// Summaries are immutable after Compile returns.
type Summary struct {
	// allow[b] / deny[b] hold the principals granted / vetoed mode bit
	// b by Principal and Group entries. Everyone entries live in the
	// evAllow / evDeny masks instead of materializing all-IDs sets.
	// Per-mode sets drawn from the same entries are one set, and a set
	// that is one group's closure is the registry's own set.
	allow, deny [numModes]*idset.Set
	evAllow     Mode
	evDeny      Mode

	// regSensitive records whether any entry's compilation consulted
	// the membership relation or failed to resolve a name: such a
	// summary is only valid for the exact registry version it was
	// compiled against. A non-sensitive summary (individual entries
	// all resolved, plus Everyone entries) stays valid across registry
	// versions because principal IDs are append-only and stable.
	regSensitive bool
	// unresolved records whether a principal entry named no registered
	// principal: the summary changes when the registry allocates new IDs.
	unresolved bool
}

// Compile builds the Summary of a against r. The caller must ensure a
// is not mutated during the call (the name server compiles under its
// writer lock, against nodes' private ACL clones).
func (a *ACL) Compile(r IDResolver) *Summary {
	s := &Summary{}
	for _, e := range a.entries {
		switch e.Kind {
		case Everyone:
			if e.Deny {
				s.evDeny |= e.Modes
			} else {
				s.evAllow |= e.Modes
			}
		case Principal:
			if _, ok := r.PrincipalID(e.Who); !ok {
				// A name with no ID can never match a registered
				// subject, but it forces recompilation when the
				// registry changes (the principal may appear later).
				s.regSensitive, s.unresolved = true, true
			}
		case Group:
			// Group entries always depend on the membership relation.
			s.regSensitive = true
		}
	}
slots:
	for k := 0; k < 2*numModes; k++ {
		for j := 0; j < k; j++ {
			if a.sameSources(j, k) {
				*s.slot(k) = *s.slot(j)
				continue slots
			}
		}
		*s.slot(k) = a.compileSet(r, k)
	}
	return s
}

// slot returns the set of slot k: allow[k] below numModes, deny[k -
// numModes] from there.
func (s *Summary) slot(k int) **idset.Set {
	if k < numModes {
		return &s.allow[k]
	}
	return &s.deny[k-numModes]
}

// feeds reports whether entry e contributes IDs to slot k's set.
func feeds(e Entry, k int) bool {
	return e.Kind != Everyone && e.Deny == (k >= numModes) && e.Modes&(1<<(k%numModes)) != 0
}

// sameSources reports whether slots j and k draw on the same entries,
// and so hold the same IDs.
func (a *ACL) sameSources(j, k int) bool {
	for _, e := range a.entries {
		if feeds(e, j) != feeds(e, k) {
			return false
		}
	}
	return true
}

// compileSet builds slot k's set: the union of the IDs of the
// principal entries and the closures of the group entries feeding it.
func (a *ACL) compileSet(r IDResolver, k int) *idset.Set {
	var buf [8]int
	ids := buf[:0]
	var set *idset.Set
	for _, e := range a.entries {
		if !feeds(e, k) {
			continue
		}
		if e.Kind == Group {
			set = set.Or(r.GroupPrincipalIDs(e.Who))
		} else if id, ok := r.PrincipalID(e.Who); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return set
	}
	return set.Or(idset.Of(ids...))
}

// Granted computes the effective mode set for the principal with the
// given ID: the union of matching allows minus the union of matching
// denies, exactly as GrantedIn computes it by entry iteration.
func (s *Summary) Granted(id int) Mode {
	var allowed, denied Mode
	for b := 0; b < numModes; b++ {
		bit := Mode(1) << b
		if s.evAllow&bit != 0 || s.allow[b].Has(id) {
			allowed |= bit
		}
		if s.evDeny&bit != 0 || s.deny[b].Has(id) {
			denied |= bit
		}
	}
	return allowed &^ denied
}

// Grants reports whether the principal with the given ID is granted
// every mode in want (the Summary form of CheckIn). An empty want is
// always granted.
func (s *Summary) Grants(id int, want Mode) bool {
	for m := want & AllModes; m != 0; m &= m - 1 {
		b := bits.TrailingZeros16(uint16(m))
		bit := Mode(1) << b
		if s.evDeny&bit != 0 || s.deny[b].Has(id) {
			return false
		}
		if s.evAllow&bit == 0 && !s.allow[b].Has(id) {
			return false
		}
	}
	return want&^AllModes == 0
}

// EffectiveIDs returns the set of principal IDs in all granted the
// single mode m: (everyone-or-allowed) minus denied. all is the ID
// space, IDs 0..n-1; with everyone allowed and no one denied, the
// result is all itself. It is used to compile traversal-visibility
// chains at freeze time.
func (s *Summary) EffectiveIDs(m Mode, all *idset.Set) *idset.Set {
	b := bits.TrailingZeros16(uint16(m & AllModes))
	if b >= numModes {
		return nil
	}
	bit := Mode(1) << b
	if s.evDeny&bit != 0 {
		return nil
	}
	out := s.allow[b].And(all)
	if s.evAllow&bit != 0 {
		out = all
	}
	return out.AndNot(s.deny[b])
}

// RegSensitive reports whether the summary's verdicts depend on the
// registry version it was compiled against (group entries or
// unresolved names). Non-sensitive summaries may be reused across
// registry transitions because principal IDs are append-only.
func (s *Summary) RegSensitive() bool { return s.regSensitive }

// Unresolved reports whether a principal entry named no principal of
// the registry the summary was compiled against, so that a registry
// allocating new IDs can change the summary.
func (s *Summary) Unresolved() bool { return s.unresolved }

// EachSet calls fn once with every distinct non-empty per-mode set.
func (s *Summary) EachSet(fn func(*idset.Set)) {
	for k := 0; k < 2*numModes; k++ {
		set := *s.slot(k)
		seen := set == nil
		for j := 0; j < k && !seen; j++ {
			seen = *s.slot(j) == set
		}
		if !seen {
			fn(set)
		}
	}
}

// RetainedBytes reports the heap bytes held by the summary's distinct
// per-mode sets, a group's closure it shares with the registry
// included (not counting the Summary header itself).
func (s *Summary) RetainedBytes() int {
	n := 0
	s.EachSet(func(set *idset.Set) { n += set.RetainedBytes() })
	return n
}
