package acl

import "math/bits"

// This file implements freeze-time ACL compilation: an immutable
// Summary that answers the deny-overrides decision of GrantedIn with a
// few bitset probes over dense principal IDs instead of iterating the
// entry list and resolving group membership per request. Summaries are
// built once per published policy epoch (the registry and ACL are both
// frozen at that point) and shared by every reader of that epoch.

// IDSet is a bitset over dense principal IDs (bit i == principal with
// ID i). The zero value is the empty set. IDSets attached to published
// summaries are immutable and may be shared freely across epochs.
type IDSet []uint64

// Has reports whether id is in the set. Negative or out-of-range IDs
// are simply absent.
func (s IDSet) Has(id int) bool {
	w := id >> 6
	return id >= 0 && w < len(s) && s[w]&(1<<(uint(id)&63)) != 0
}

// grow extends the set to at least n words in one allocation.
func (s *IDSet) grow(n int) {
	if n > len(*s) {
		out := make(IDSet, n)
		copy(out, *s)
		*s = out
	}
}

// set inserts id, growing the set as needed.
func (s *IDSet) set(id int) {
	w := id >> 6
	s.grow(w + 1)
	(*s)[w] |= 1 << (uint(id) & 63)
}

// or unions raw words into the set, growing as needed.
func (s *IDSet) or(words []uint64) {
	s.grow(len(words))
	for i, w := range words {
		(*s)[i] |= w
	}
}

// And returns the intersection of s and t as a fresh set.
func (s IDSet) And(t IDSet) IDSet {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	if n == 0 {
		return nil
	}
	out := make(IDSet, n)
	for i := 0; i < n; i++ {
		out[i] = s[i] & t[i]
	}
	return out
}

// Equal reports whether s and t contain the same IDs (trailing zero
// words are ignored).
func (s IDSet) Equal(t IDSet) bool {
	long, short := s, t
	if len(short) > len(long) {
		long, short = t, s
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len reports the number of IDs in the set.
func (s IDSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// onesIDSet returns a set containing IDs 0..n-1.
func onesIDSet(n int) IDSet {
	if n <= 0 {
		return nil
	}
	out := make(IDSet, (n+63)/64)
	for i := range out {
		out[i] = ^uint64(0)
	}
	out.maskTail(n)
	return out
}

// maskTail clears any bits at positions >= n.
func (s IDSet) maskTail(n int) {
	if n < 0 {
		n = 0
	}
	w := n >> 6
	for i := w; i < len(s); i++ {
		if i == w && n&63 != 0 {
			s[i] &= 1<<(uint(n)&63) - 1
		} else {
			s[i] = 0
		}
	}
}

// retainedBytes reports the heap bytes held by the set's backing array.
func (s IDSet) retainedBytes() int { return cap(s) * 8 }

// IDResolver maps principal and group names to the dense, append-only
// principal-ID space of a frozen registry. The principal package's
// Frozen registry satisfies it. GroupPrincipalIDs returns the raw
// bitset words (bit i == principal ID i) of the group's transitive
// member set; an unknown name yields (0, false) / nil.
type IDResolver interface {
	// PrincipalID returns the dense ID of the named principal.
	PrincipalID(name string) (int, bool)
	// GroupPrincipalIDs returns the transitive member set of the named
	// group as bitset words over principal IDs, nil if unknown. The
	// returned slice must not be mutated.
	GroupPrincipalIDs(group string) []uint64
	// NumPrincipalIDs reports how many principal IDs are allocated
	// (IDs are 0..N-1).
	NumPrincipalIDs() int
}

// Summary is the compiled form of an ACL against one frozen registry:
// per-mode allow and deny bitsets over principal IDs, with Everyone
// entries folded into mode masks. A Summary reproduces GrantedIn's
// deny-overrides verdict exactly for every principal that has an ID in
// the registry it was compiled against.
//
// Summaries are immutable after Compile returns.
type Summary struct {
	// allow[b] / deny[b] hold the principals granted / vetoed mode bit
	// b by Principal and Group entries. Everyone entries live in the
	// evAllow / evDeny masks instead of materializing all-ones sets.
	allow, deny [numModes]IDSet
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
			id, ok := r.PrincipalID(e.Who)
			if !ok {
				// A name with no ID can never match a registered
				// subject, but it forces recompilation when the
				// registry changes (the principal may appear later).
				s.regSensitive, s.unresolved = true, true
				continue
			}
			s.each(e, func(set *IDSet) { set.set(id) })
		case Group:
			// Group entries always depend on the membership relation.
			s.regSensitive = true
			words := r.GroupPrincipalIDs(e.Who)
			if len(words) == 0 {
				continue
			}
			s.each(e, func(set *IDSet) { set.or(words) })
		}
	}
	return s
}

// each applies fn to the per-mode set (allow or deny per e.Deny) of
// every mode bit in e.Modes.
func (s *Summary) each(e Entry, fn func(*IDSet)) {
	sets := &s.allow
	if e.Deny {
		sets = &s.deny
	}
	for m := e.Modes & AllModes; m != 0; m &= m - 1 {
		fn(&sets[bits.TrailingZeros16(uint16(m))])
	}
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

// EffectiveIDs materializes the set of principal IDs (over 0..n-1)
// granted the single mode m: (everyone-or-allowed) minus denied. It is
// used to compile traversal-visibility chains at freeze time.
func (s *Summary) EffectiveIDs(m Mode, n int) IDSet {
	b := bits.TrailingZeros16(uint16(m & AllModes))
	if b >= numModes {
		return nil
	}
	bit := Mode(1) << b
	if s.evDeny&bit != 0 {
		return nil
	}
	var out IDSet
	if s.evAllow&bit != 0 {
		out = onesIDSet(n)
	} else {
		src := s.allow[b]
		out = make(IDSet, len(src))
		copy(out, src)
		out.maskTail(n)
	}
	for i, w := range s.deny[b] {
		if i >= len(out) {
			break
		}
		out[i] &^= w
	}
	return out
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

// RetainedBytes reports the heap bytes held by the summary's bitsets
// (not counting the Summary header itself).
func (s *Summary) RetainedBytes() int {
	n := 0
	for b := 0; b < numModes; b++ {
		n += s.allow[b].retainedBytes() + s.deny[b].retainedBytes()
	}
	return n
}
