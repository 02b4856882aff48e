package lattice

import (
	"fmt"
	"sort"
	"strings"
)

// Frozen is one immutable version of the lattice universe: the level
// order and the category set as of one publication. A Frozen value
// never changes after it is built, so every lookup on it is a pure
// function — no locks, no mutable state — and a reference monitor that
// pins a Frozen for the duration of a decision is guaranteed that no
// concurrent DefineLevel/DefineCategory can slide under the decision.
//
// Frozen is the lattice's contribution to a policy epoch (see
// names.Epoch): the name server bundles the current Frozen with the
// name tree, the frozen principal registry, and the guard stack, and
// publishes all four behind one atomic pointer.
type Frozen struct {
	lat      *Lattice // identity: classes remain comparable across versions
	version  uint64
	levels   []string
	levelIdx map[string]Level
	cats     []string
	catIdx   map[string]int
}

// Version returns the universe version this view was published as.
// Versions start at 1 and advance by one per definition.
func (f *Frozen) Version() uint64 { return f.version }

// Lattice returns the lattice this view was frozen from.
func (f *Frozen) Lattice() *Lattice { return f.lat }

// LevelByName resolves a level name in this version of the universe.
func (f *Frozen) LevelByName(name string) (Level, error) {
	lv, ok := f.levelIdx[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownLevel, name)
	}
	return lv, nil
}

// LevelName returns the name of a level.
func (f *Frozen) LevelName(lv Level) (string, error) {
	if lv < 0 || int(lv) >= len(f.levels) {
		return "", fmt.Errorf("%w: index %d", ErrUnknownLevel, lv)
	}
	return f.levels[lv], nil
}

// Levels returns all level names, lowest first.
func (f *Frozen) Levels() []string {
	out := make([]string, len(f.levels))
	copy(out, f.levels)
	return out
}

// Categories returns all category names in definition order.
func (f *Frozen) Categories() []string {
	out := make([]string, len(f.cats))
	copy(out, f.cats)
	return out
}

// NumLevels reports the number of trust levels in this version.
func (f *Frozen) NumLevels() int { return len(f.levels) }

// NumCategories reports the number of categories in this version.
func (f *Frozen) NumCategories() int { return len(f.cats) }

// Class constructs a security class at the named level with the named
// categories, resolved against this version of the universe.
func (f *Frozen) Class(level string, categories ...string) (Class, error) {
	lv, err := f.LevelByName(level)
	if err != nil {
		return Class{}, err
	}
	set := newBitset(0)
	for _, c := range categories {
		idx, ok := f.catIdx[c]
		if !ok {
			return Class{}, fmt.Errorf("%w: %q", ErrUnknownCategory, c)
		}
		set = set.with(idx)
	}
	return Class{lat: f.lat, level: lv, cats: set}, nil
}

// Bottom returns the least class: lowest level, empty category set.
func (f *Frozen) Bottom() (Class, error) {
	if len(f.levels) == 0 {
		return Class{}, ErrNoLevels
	}
	return Class{lat: f.lat, level: 0, cats: newBitset(0)}, nil
}

// Top returns the greatest class: highest level, all categories of this
// version.
func (f *Frozen) Top() (Class, error) {
	if len(f.levels) == 0 {
		return Class{}, ErrNoLevels
	}
	set := newBitset(len(f.cats))
	for i := range f.cats {
		set = set.with(i)
	}
	return Class{lat: f.lat, level: Level(len(f.levels) - 1), cats: set}, nil
}

// ParseClass parses a textual class label (see Lattice.ParseClass)
// against this version of the universe.
func (f *Frozen) ParseClass(label string) (Class, error) {
	level := label
	var cats []string
	if i := strings.IndexByte(label, ':'); i >= 0 {
		level = label[:i]
		rest := label[i+1:]
		if len(rest) < 2 || rest[0] != '{' || rest[len(rest)-1] != '}' {
			return Class{}, fmt.Errorf("%w: %q", ErrBadLabel, label)
		}
		inner := rest[1 : len(rest)-1]
		if inner != "" {
			cats = strings.Split(inner, ",")
		}
	}
	return f.Class(level, cats...)
}

// Format renders a class as a label accepted by ParseClass, using this
// version's name tables. A class minted under a later version may
// reference a category this version does not know; that is an error,
// not a panic — the caller pinned an epoch that predates the class.
func (f *Frozen) Format(c Class) (string, error) {
	if c.lat != f.lat {
		return "", ErrForeignClass
	}
	name, err := f.LevelName(c.level)
	if err != nil {
		return "", err
	}
	idxs := c.cats.members()
	if len(idxs) == 0 {
		return name, nil
	}
	names := make([]string, 0, len(idxs))
	for _, i := range idxs {
		if i >= len(f.cats) {
			return "", fmt.Errorf("%w: index %d", ErrUnknownCategory, i)
		}
		names = append(names, f.cats[i])
	}
	sort.Strings(names)
	return name + ":{" + strings.Join(names, ",") + "}", nil
}

// Contains reports whether class c is expressible in this version of
// the universe: its level exists and every category index it carries is
// defined. Definitions are append-only, so a class is contained by its
// minting version and every later one. The epoch fuzzer uses this to
// assert that no published epoch references policy state outside its
// own lattice.
func (f *Frozen) Contains(c Class) bool {
	if c.lat != f.lat {
		return false
	}
	if c.level < 0 || int(c.level) >= len(f.levels) {
		return false
	}
	for _, i := range c.cats.members() {
		if i >= len(f.cats) {
			return false
		}
	}
	return true
}

// cloneForDefine copies the frozen tables for one more definition: the
// universe is append-only, so the successor is f's tables plus one
// entry.
func (f *Frozen) cloneForDefine() *Frozen {
	next := &Frozen{
		lat:      f.lat,
		version:  f.version + 1,
		levels:   append([]string(nil), f.levels...),
		cats:     append([]string(nil), f.cats...),
		levelIdx: make(map[string]Level, len(f.levelIdx)+1),
		catIdx:   make(map[string]int, len(f.catIdx)+1),
	}
	for k, v := range f.levelIdx {
		next.levelIdx[k] = v
	}
	for k, v := range f.catIdx {
		next.catIdx[k] = v
	}
	return next
}
