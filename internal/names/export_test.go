package names

import (
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// Test-only access for FuzzDecisionSurfaces, which lives in the
// external names_test package because the surfaces it drives (core,
// provenance, the secextmodel baseline) import names. Nothing here is
// production API.

// Mirror is an in-process replica fed epoch frames (see mirror).
type Mirror = mirror

var (
	WalkOnly                = walkOnly
	SameDecision            = sameDecision
	QueryPaths              = queryPaths
	QueryModes              = queryModes
	MirrorFrom              = mirrorFrom
	SnapshotFrames          = snapshotFrames
	EncodeFrames            = encodeFrames
	AssertCompiledStructure = assertCompiledStructure
)

// Ask checks a query against the mirror's current epoch (mirror.ask).
func (m *mirror) Ask(name string, class lattice.Class, path string, modes acl.Mode) error {
	return m.ask(name, class, path, modes)
}

// Apply replays one delta through its frames (mirror.apply).
func (m *mirror) Apply(t testing.TB, d *EpochWire) error { return m.apply(t, d) }

// CompiledFast reports whether ep's compiled view decides checks: it
// is compiled and its stack is the default [dac, mac].
func CompiledFast(ep *Epoch) bool { return ep.compiled != nil && ep.compiled.fast }
