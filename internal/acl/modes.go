// Package acl implements the discretionary access control layer of
// "Security for Extensible Systems" (Grimm & Bershad, HotOS 1997), §2.1:
// fully featured access control lists with positive (allow) and negative
// (deny) entries for both individuals and groups, over the paper's mode
// set — read, write, write-append, execute, extend, administrate, delete,
// and list. The execute and extend modes gate the two ways extensions
// interact with the rest of the system: calling a service and
// specializing it.
//
// The paper requires negative entries but does not fix a conflict
// resolution order; this implementation uses deny-overrides (a matching
// deny entry vetoes the mode regardless of entry order), the conservative
// choice. The ordered first-match alternative is implemented by the
// Windows-NT-style baseline in internal/baseline/ntacl so the difference
// is observable.
package acl

import (
	"fmt"
	"strings"
)

// Mode is a bitmask of access modes. The set follows §2.1 of the paper.
type Mode uint16

const (
	// Read allows viewing the contents of an object.
	Read Mode = 1 << iota
	// Write allows destructively modifying the contents of an object.
	Write
	// WriteAppend allows appending to an object without reading or
	// destroying existing contents ("to better limit how objects can be
	// modified").
	WriteAppend
	// Execute allows an extension to call on a service — the first of
	// the two extension interaction modes.
	Execute
	// Extend allows an extension to extend (specialize) a service — the
	// second interaction mode.
	Extend
	// Administrate allows changing the access control list itself.
	Administrate
	// Delete allows removing the object from the name space.
	Delete
	// List allows enumerating the children of a non-leaf node, and thus
	// controls which names are visible to an extension (§2.3).
	List

	numModes = 8
)

// None is the empty mode set.
const None Mode = 0

// AllModes is the union of every defined mode.
const AllModes Mode = 1<<numModes - 1

var modeNames = [numModes]string{
	"read", "write", "write-append", "execute",
	"extend", "administrate", "delete", "list",
}

// Has reports whether m includes every mode in want.
func (m Mode) Has(want Mode) bool { return m&want == want }

// modeStrings holds the rendered form of every valid mode set so that
// Mode.String is allocation-free on the mediation hot path (the audit
// layer renders the requested modes of every mediated call).
var modeStrings [AllModes + 1]string

func init() {
	for m := Mode(0); ; m++ {
		modeStrings[m] = m.render()
		if m == AllModes {
			break
		}
	}
}

// String renders the mode set as a comma-separated list, "none" if empty.
// For valid mode sets the result is a precomputed string and no
// allocation occurs.
func (m Mode) String() string {
	if m&^AllModes == 0 && modeStrings[m] != "" {
		return modeStrings[m]
	}
	return m.render()
}

// render builds the textual form; String serves valid sets from a table.
func (m Mode) render() string {
	if m == None {
		return "none"
	}
	var parts []string
	for i := 0; i < numModes; i++ {
		if m&(1<<i) != 0 {
			parts = append(parts, modeNames[i])
		}
	}
	if m&^AllModes != 0 {
		parts = append(parts, fmt.Sprintf("invalid(%#x)", uint16(m&^AllModes)))
	}
	return strings.Join(parts, ",")
}

// ParseMode parses a comma-separated mode list as produced by String.
// "none" and the empty string parse to None; "all" parses to AllModes.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "none":
		return None, nil
	case "all":
		return AllModes, nil
	}
	var m Mode
	// Cut, not Split: a CHECK parses its modes on every request, and
	// the loop should leave no garbage behind.
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		found := false
		for i, name := range modeNames {
			if part == name {
				m |= 1 << i
				found = true
				break
			}
		}
		if !found {
			return None, fmt.Errorf("acl: unknown access mode %q", part)
		}
	}
	return m, nil
}
