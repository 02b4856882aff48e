// Package lattice implements the mandatory access control model of
// "Security for Extensible Systems" (Grimm & Bershad, HotOS 1997), §2.2.
//
// A security class is the product of a linearly ordered set of trust
// levels and a subset of a set of categories; all classes form a lattice
// under the dominance relation (Denning's lattice model of secure
// information flow). Subjects (threads of control) and objects (named
// services, files, extensions) each carry a class. The flow rules are
// Bell-LaPadula style:
//
//   - read:  subject must dominate object (level >=, categories superset)
//   - write: object must dominate subject (no write-down)
//
// The paper additionally motivates a write-append mode so that a subject
// at a lower level of trust cannot blindly overwrite an object at a
// higher level; see CanAppend and CanOverwrite.
//
// Concurrency design (build-then-freeze): the universe of levels and
// categories is an immutable Frozen value published through one atomic
// pointer. Every read — name lookups, class construction, parsing,
// formatting — loads the current Frozen once and works on pure data, so
// the read side takes no locks. Writers (DefineLevel, DefineCategory)
// serialize on a writer-only mutex, clone the tables, and publish a
// successor version; the publish hook hands the new Frozen to the name
// server, which folds it into the next policy epoch. Dominance checks
// themselves never touch the universe at all: a Class carries its own
// category bitset, so Dominates/Join/Meet are pure bitset arithmetic.
package lattice

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Level identifies one trust level in a lattice. Levels are linearly
// ordered: a larger Level dominates a smaller one. The zero Level is the
// lowest level of the lattice that defined it.
type Level int

// Errors returned by lattice operations.
var (
	ErrUnknownLevel    = errors.New("lattice: unknown trust level")
	ErrUnknownCategory = errors.New("lattice: unknown category")
	ErrDuplicateName   = errors.New("lattice: duplicate name")
	ErrNoLevels        = errors.New("lattice: no trust levels defined")
	ErrForeignClass    = errors.New("lattice: class belongs to a different lattice")
	ErrBadLabel        = errors.New("lattice: malformed class label")
)

// Lattice holds the universe of trust levels and categories out of which
// security classes are formed. A Lattice is safe for concurrent use; all
// read methods are lock-free delegations to the current Frozen view.
//
// Levels are defined lowest-first; categories are an unordered set.
// Definitions are append-only: once a level or category exists it cannot
// be removed, so previously issued Classes remain valid in every later
// version of the universe.
type Lattice struct {
	// frozen is the atomically published current universe. Readers load
	// it once per operation; writeMu serializes clone-and-publish.
	frozen  atomic.Pointer[Frozen]
	writeMu sync.Mutex

	// onPublish, when set, receives every newly published Frozen,
	// makes it live in the receiver's own published state, and returns
	// the version it landed in. The reference monitor wires it to the
	// name server's epoch publisher, so a definition lands in the policy
	// epoch — and kills every cached verdict — before the definer
	// regains control. Guarded by writeMu.
	onPublish func(*Frozen) uint64
}

// New returns an empty lattice with no levels and no categories.
func New() *Lattice {
	l := &Lattice{}
	l.frozen.Store(&Frozen{
		lat:      l,
		version:  1,
		levelIdx: make(map[string]Level),
		catIdx:   make(map[string]int),
	})
	return l
}

// NewWithUniverse is a convenience constructor that defines the given
// levels (lowest first) and categories in one call.
func NewWithUniverse(levelsLowToHigh, categories []string) (*Lattice, error) {
	l := New()
	for _, name := range levelsLowToHigh {
		if _, err := l.DefineLevel(name); err != nil {
			return nil, err
		}
	}
	for _, name := range categories {
		if _, err := l.DefineCategory(name); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Freeze returns the currently published universe: one atomic load, no
// locks. The returned view is immutable and stays valid forever; pin it
// to run several lookups against one version of the universe.
func (l *Lattice) Freeze() *Frozen { return l.frozen.Load() }

// Version returns the current universe version (1 for an empty lattice,
// +1 per definition).
func (l *Lattice) Version() uint64 { return l.frozen.Load().version }

// SetPublishHook installs a function that receives every newly
// published Frozen universe, makes it live downstream, and returns the
// downstream version. The reference monitor wires it to the name
// server's epoch publisher; a nil hook clears it. The hook runs with
// the writer mutex held, so publications reach it in version order.
func (l *Lattice) SetPublishHook(fn func(*Frozen) uint64) {
	l.writeMu.Lock()
	defer l.writeMu.Unlock()
	l.onPublish = fn
}

// publishLocked installs next as the current universe and reports it
// to the hook, which returns once the epoch carrying next is published
// downstream. Caller holds writeMu.
func (l *Lattice) publishLocked(next *Frozen) {
	l.frozen.Store(next)
	if l.onPublish != nil {
		l.onPublish(next)
	}
}

// DefineLevel appends a new trust level that dominates every level
// defined before it, and returns its Level value.
func (l *Lattice) DefineLevel(name string) (Level, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	l.writeMu.Lock()
	cur := l.frozen.Load()
	if _, dup := cur.levelIdx[name]; dup {
		l.writeMu.Unlock()
		return 0, fmt.Errorf("%w: level %q", ErrDuplicateName, name)
	}
	next := cur.cloneForDefine()
	lv := Level(len(next.levels))
	next.levels = append(next.levels, name)
	next.levelIdx[name] = lv
	l.publishLocked(next)
	l.writeMu.Unlock()
	return lv, nil
}

// DefineCategory adds a new category to the universe and returns its
// index.
func (l *Lattice) DefineCategory(name string) (int, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	l.writeMu.Lock()
	cur := l.frozen.Load()
	if _, dup := cur.catIdx[name]; dup {
		l.writeMu.Unlock()
		return 0, fmt.Errorf("%w: category %q", ErrDuplicateName, name)
	}
	next := cur.cloneForDefine()
	idx := len(next.cats)
	next.cats = append(next.cats, name)
	next.catIdx[name] = idx
	l.publishLocked(next)
	l.writeMu.Unlock()
	return idx, nil
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrBadLabel)
	}
	if strings.ContainsAny(name, "{},: \t\n") {
		return fmt.Errorf("%w: name %q contains reserved characters", ErrBadLabel, name)
	}
	return nil
}

// LevelByName resolves a level name.
func (l *Lattice) LevelByName(name string) (Level, error) {
	return l.frozen.Load().LevelByName(name)
}

// LevelName returns the name of a level.
func (l *Lattice) LevelName(lv Level) (string, error) {
	return l.frozen.Load().LevelName(lv)
}

// Levels returns all level names, lowest first.
func (l *Lattice) Levels() []string { return l.frozen.Load().Levels() }

// Categories returns all category names in definition order.
func (l *Lattice) Categories() []string { return l.frozen.Load().Categories() }

// NumLevels reports the number of defined trust levels.
func (l *Lattice) NumLevels() int { return l.frozen.Load().NumLevels() }

// NumCategories reports the number of defined categories.
func (l *Lattice) NumCategories() int { return l.frozen.Load().NumCategories() }

// Class constructs a security class at the named level with the named
// categories.
func (l *Lattice) Class(level string, categories ...string) (Class, error) {
	return l.frozen.Load().Class(level, categories...)
}

// MustClass is Class but panics on error; intended for tests and
// statically known labels.
func (l *Lattice) MustClass(level string, categories ...string) Class {
	c, err := l.Class(level, categories...)
	if err != nil {
		panic(err)
	}
	return c
}

// Bottom returns the least class of the lattice: lowest level, empty
// category set. It fails if no levels are defined.
func (l *Lattice) Bottom() (Class, error) { return l.frozen.Load().Bottom() }

// Top returns the greatest class of the lattice: highest level, all
// categories. It fails if no levels are defined.
func (l *Lattice) Top() (Class, error) { return l.frozen.Load().Top() }

// ParseClass parses a textual class label of the form
//
//	level
//	level:{}
//	level:{cat1,cat2}
//
// Whitespace around names is not permitted; names follow validName.
func (l *Lattice) ParseClass(label string) (Class, error) {
	return l.frozen.Load().ParseClass(label)
}

// Format renders a class as a label accepted by ParseClass. Categories
// are sorted by name for deterministic output.
func (l *Lattice) Format(c Class) (string, error) {
	if c.lat != l {
		return "", ErrForeignClass
	}
	return l.frozen.Load().Format(c)
}
