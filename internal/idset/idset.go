// Package idset implements an immutable set of small non-negative
// integer IDs — the dense principal IDs of a frozen registry, or the
// bit positions of its groups — that costs memory in proportion to what
// it holds, not to its highest ID.
//
// The layout follows Roaring bitmaps (Chambi, Lemire et al., "Better
// bitmap performance with Roaring bitmaps", SPE 2016): the ID space is
// cut into chunks of 2^16 IDs, and each non-empty chunk is stored in the
// cheapest of three layouts: a sorted array of the IDs' low halves (2 B
// an ID, up to 4,096 IDs), a bitmap (8 KiB), or a list of runs (4 B a
// run). The choice is a function of the chunk's contents alone, so two
// sets hold the same IDs exactly when their chunks are equal field by
// field, and "everyone" — the IDs 0..n-1 — costs a word per chunk.
//
// A *Set is immutable once built and may be shared freely; nil is the
// empty set, and no operation returns a non-nil empty set. Operations
// return one of their operands, not a copy, when the result holds
// exactly that operand's IDs, so callers can compare sets by pointer to
// learn that nothing changed: the And of any set with "everyone" is the
// set itself and allocates nothing.
package idset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"unsafe"
)

const (
	// maxID is the largest ID a set can hold, the largest int on every
	// platform.
	maxID = 1<<31 - 1

	chunkBits  = 16
	chunkSize  = 1 << chunkBits
	chunkWords = chunkSize / 64
	// maxSparse is the most IDs a sorted-array chunk holds: at 4,096
	// IDs the array is as large as the bitmap.
	maxSparse = chunkWords * 64 / 16
)

// layout is how a chunk stores its IDs.
type layout uint8

const (
	sparse layout = iota // vals: the sorted low halves
	dense                // bits: one bit per low half
	runs                 // vals: sorted, disjoint, non-adjacent (first, last) pairs
)

// words is one chunk's bitmap.
type words = [chunkWords]uint64

// fullRun is the one run of a full chunk; every full chunk shares it.
var fullRun = []uint16{0, chunkSize - 1}

// chunk holds the IDs of one 2^16-ID block of a set: those whose high
// half is key. It is never empty, and its layout is the one choose
// picks for its contents.
type chunk struct {
	key  uint16
	kind layout
	card uint32 // 1..chunkSize
	vals []uint16
	bits *words
}

// Set is an immutable set of IDs in 0..2^31-1; nil is the empty set.
type Set struct {
	cs []chunk // non-empty chunks in key order
}

// single is a one-chunk set allocated together with its chunk.
type single struct {
	s Set
	c [1]chunk
}

// newSet builds a set of a copy of cs (nil when cs is empty). A
// one-chunk set takes one allocation.
func newSet(cs []chunk) *Set {
	switch len(cs) {
	case 0:
		return nil
	case 1:
		p := &single{c: [1]chunk{cs[0]}}
		p.s.cs = p.c[:]
		return &p.s
	}
	return &Set{cs: slices.Clone(cs)}
}

// choose picks the layout of a chunk holding card IDs in nruns runs:
// the smallest, with runs winning only when strictly smaller.
func choose(card, nruns int) layout {
	l, size := sparse, 2*card
	if card > maxSparse {
		l, size = dense, 8*chunkWords
	}
	if 4*nruns < size {
		l = runs
	}
	return l
}

// fromSorted builds the chunk holding the sorted, distinct low halves
// vals (non-empty), taking ownership of vals when it keeps the array.
func fromSorted(key uint16, vals []uint16) chunk {
	nruns := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1]+1 {
			nruns++
		}
	}
	c := chunk{key: key, card: uint32(len(vals))}
	switch c.kind = choose(len(vals), nruns); c.kind {
	case sparse:
		c.vals = vals
	case runs:
		c.vals = make([]uint16, 0, 2*nruns)
		for i, v := range vals {
			if i == 0 || v != vals[i-1]+1 {
				c.vals = append(c.vals, v, v)
			} else {
				c.vals[len(c.vals)-1] = v
			}
		}
		if len(c.vals) == 2 && c.card == chunkSize {
			c.vals = fullRun
		}
	default:
		c.bits = new(words)
		for _, v := range vals {
			c.bits[v>>6] |= 1 << (v & 63)
		}
	}
	return c
}

// fromWords builds the chunk holding w's bits; ok is false when w is
// empty.
func fromWords(key uint16, w *words) (c chunk, ok bool) {
	card, nruns := 0, 0
	var carry uint64
	for _, x := range w {
		card += bits.OnesCount64(x)
		nruns += bits.OnesCount64(x &^ (x<<1 | carry))
		carry = x >> 63
	}
	if card == 0 {
		return chunk{}, false
	}
	c = chunk{key: key, card: uint32(card), kind: choose(card, nruns)}
	switch c.kind {
	case dense:
		c.bits = new(words)
		*c.bits = *w
	case sparse:
		c.vals = make([]uint16, 0, card)
		eachBit(w, func(v int) { c.vals = append(c.vals, uint16(v)) })
	default:
		if card == chunkSize {
			c.vals = fullRun
			break
		}
		c.vals = make([]uint16, 0, 2*nruns)
		eachBit(w, func(v int) {
			if n := len(c.vals); n > 0 && int(c.vals[n-1]) == v-1 {
				c.vals[n-1] = uint16(v)
			} else {
				c.vals = append(c.vals, uint16(v), uint16(v))
			}
		})
	}
	return c, true
}

// eachBit calls fn with every bit set in w, in ascending order.
func eachBit(w *words, fn func(int)) {
	for i, x := range w {
		for ; x != 0; x &= x - 1 {
			fn(i*64 + bits.TrailingZeros64(x))
		}
	}
}

// fill ORs c's IDs into w.
func (c *chunk) fill(w *words) {
	switch c.kind {
	case dense:
		for i, x := range c.bits {
			w[i] |= x
		}
	case sparse:
		for _, v := range c.vals {
			w[v>>6] |= 1 << (v & 63)
		}
	default:
		for i := 0; i < len(c.vals); i += 2 {
			setRange(w, int(c.vals[i]), int(c.vals[i+1]))
		}
	}
}

// setRange sets bits first..last of w.
func setRange(w *words, first, last int) {
	fw, lw := first>>6, last>>6
	lo, hi := ^uint64(0)<<(first&63), ^uint64(0)>>(63-last&63)
	if fw == lw {
		w[fw] |= lo & hi
		return
	}
	w[fw] |= lo
	for i := fw + 1; i < lw; i++ {
		w[i] = ^uint64(0)
	}
	w[lw] |= hi
}

func (c *chunk) full() bool { return c.card == chunkSize }

// has reports whether the low half v is in c.
func (c *chunk) has(v uint16) bool {
	vals := c.vals
	switch c.kind {
	case dense:
		return c.bits[v>>6]&(1<<(v&63)) != 0
	case sparse:
		lo, hi := 0, len(vals)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if vals[m] < v {
				lo = m + 1
			} else {
				hi = m
			}
		}
		return lo < len(vals) && vals[lo] == v
	}
	if len(vals) == 2 { // one run: "everyone" and most chains
		return vals[0] <= v && v <= vals[1]
	}
	// The first run whose last ID is at least v holds v if it starts at
	// or before it.
	lo, hi := 0, len(vals)/2
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vals[2*m+1] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(vals)/2 && vals[2*lo] <= v
}

// filter returns the chunk of the IDs v of the sparse chunk c for
// which o.has(v) == want; c itself when that is all of them.
func (c *chunk) filter(o *chunk, want bool) (chunk, bool) {
	n := 0
	for _, v := range c.vals {
		if o.has(v) == want {
			n++
		}
	}
	switch n {
	case 0:
		return chunk{}, false
	case len(c.vals):
		return *c, true
	}
	out := make([]uint16, 0, n)
	for _, v := range c.vals {
		if o.has(v) == want {
			out = append(out, v)
		}
	}
	return fromSorted(c.key, out), true
}

// op is a word-wise set operation.
type op uint8

const (
	opAnd op = iota
	opOr
	opAndNot
)

// combine computes a op b over two chunks of one key through bitmaps,
// returning a or b themselves when the result holds exactly their IDs.
func combine(a, b *chunk, o op) (chunk, bool) {
	var wa, wb words
	a.fill(&wa)
	b.fill(&wb)
	card := 0
	for i := range wa {
		switch o {
		case opAnd:
			wa[i] &= wb[i]
		case opOr:
			wa[i] |= wb[i]
		default:
			wa[i] &^= wb[i]
		}
		card += bits.OnesCount64(wa[i])
	}
	switch {
	case card == int(a.card):
		return *a, true
	case card == int(b.card) && o != opAndNot:
		return *b, true
	}
	return fromWords(a.key, &wa)
}

// and intersects two chunks of one key.
func and(a, b *chunk) (chunk, bool) {
	switch {
	case a.full():
		return *b, true
	case b.full():
		return *a, true
	case a.kind == sparse && (b.kind != sparse || a.card <= b.card):
		return a.filter(b, true)
	case b.kind == sparse:
		return b.filter(a, true)
	}
	return combine(a, b, opAnd)
}

// or unites two chunks of one key.
func or(a, b *chunk) chunk {
	switch {
	case a.full():
		return *a
	case b.full():
		return *b
	case a.kind == sparse && b.kind == sparse && a.card+b.card <= maxSparse:
		out := make([]uint16, 0, a.card+b.card)
		i, j := 0, 0
		for i < len(a.vals) || j < len(b.vals) {
			switch {
			case j == len(b.vals) || i < len(a.vals) && a.vals[i] < b.vals[j]:
				out, i = append(out, a.vals[i]), i+1
			case i == len(a.vals) || b.vals[j] < a.vals[i]:
				out, j = append(out, b.vals[j]), j+1
			default:
				out, i, j = append(out, a.vals[i]), i+1, j+1
			}
		}
		switch len(out) {
		case len(a.vals):
			return *a
		case len(b.vals):
			return *b
		}
		return fromSorted(a.key, out)
	}
	c, _ := combine(a, b, opOr)
	return c
}

// andNot removes b's IDs from a, two chunks of one key.
func andNot(a, b *chunk) (chunk, bool) {
	switch {
	case b.full():
		return chunk{}, false
	case a.kind == sparse:
		return a.filter(b, false)
	}
	return combine(a, b, opAndNot)
}

// result returns the set of the chunks out: s or t themselves when out
// holds exactly their IDs (callers pass operands out is a subset or a
// superset of), a new set otherwise.
func result(out []chunk, s, t *Set) *Set {
	n := 0
	for i := range out {
		n += int(out[i].card)
	}
	switch n {
	case 0:
		return nil
	case s.Len():
		return s
	case t.Len():
		return t
	}
	return newSet(out)
}

// Has reports whether id is in s.
func (s *Set) Has(id int) bool {
	if s == nil || uint(id) > maxID {
		return false
	}
	// A set has a chunk per 65,536 IDs in use, so a scan finds the key.
	key := uint16(id >> chunkBits)
	for i := range s.cs {
		if c := &s.cs[i]; c.key >= key {
			return c.key == key && c.has(uint16(id))
		}
	}
	return false
}

// Len reports the number of IDs in s.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.cs {
		n += int(s.cs[i].card)
	}
	return n
}

// And returns the IDs in both s and t: s or t itself when it is the
// other's subset.
func (s *Set) And(t *Set) *Set {
	if s == nil || t == nil {
		return nil
	}
	if s == t {
		return s
	}
	var buf [4]chunk
	out := buf[:0]
	for i, j := 0, 0; i < len(s.cs) && j < len(t.cs); {
		a, b := &s.cs[i], &t.cs[j]
		switch {
		case a.key < b.key:
			i++
		case a.key > b.key:
			j++
		default:
			if c, ok := and(a, b); ok {
				out = append(out, c)
			}
			i, j = i+1, j+1
		}
	}
	return result(out, s, t)
}

// Or returns the IDs in s or t: s or t itself when it is the other's
// superset.
func (s *Set) Or(t *Set) *Set {
	switch {
	case s == nil:
		return t
	case t == nil || s == t:
		return s
	}
	var buf [4]chunk
	out := buf[:0]
	i, j := 0, 0
	for i < len(s.cs) || j < len(t.cs) {
		switch {
		case j == len(t.cs) || i < len(s.cs) && s.cs[i].key < t.cs[j].key:
			out, i = append(out, s.cs[i]), i+1
		case i == len(s.cs) || t.cs[j].key < s.cs[i].key:
			out, j = append(out, t.cs[j]), j+1
		default:
			out, i, j = append(out, or(&s.cs[i], &t.cs[j])), i+1, j+1
		}
	}
	return result(out, s, t)
}

// AndNot returns the IDs in s and not in t: s itself when they share
// none.
func (s *Set) AndNot(t *Set) *Set {
	switch {
	case s == nil || s == t:
		return nil
	case t == nil:
		return s
	}
	var buf [4]chunk
	out := buf[:0]
	j := 0
	for i := range s.cs {
		a := &s.cs[i]
		for j < len(t.cs) && t.cs[j].key < a.key {
			j++
		}
		if j == len(t.cs) || t.cs[j].key != a.key {
			out = append(out, *a)
		} else if c, ok := andNot(a, &t.cs[j]); ok {
			out = append(out, c)
		}
	}
	return result(out, s, nil)
}

// Equal reports whether s and t hold the same IDs.
func (s *Set) Equal(t *Set) bool {
	if s == t {
		return true
	}
	if s == nil || t == nil || len(s.cs) != len(t.cs) {
		return false
	}
	for i := range s.cs {
		a, b := &s.cs[i], &t.cs[i]
		if a.key != b.key || a.kind != b.kind || a.card != b.card {
			return false
		}
		if a.kind == dense && *a.bits != *b.bits || a.kind != dense && !slices.Equal(a.vals, b.vals) {
			return false
		}
	}
	return true
}

// Each calls fn with every ID in s, in ascending order.
func (s *Set) Each(fn func(id int)) {
	if s == nil {
		return
	}
	for i := range s.cs {
		c := &s.cs[i]
		base := int(c.key) << chunkBits
		switch c.kind {
		case sparse:
			for _, v := range c.vals {
				fn(base | int(v))
			}
		case dense:
			eachBit(c.bits, func(v int) { fn(base | v) })
		default:
			for k := 0; k < len(c.vals); k += 2 {
				for v := int(c.vals[k]); v <= int(c.vals[k+1]); v++ {
					fn(base | v)
				}
			}
		}
	}
}

// RetainedBytes reports the heap bytes s holds: its header, its chunk
// table and each chunk's array or bitmap. Arrays shared with other
// sets (an operation's result reuses an operand's chunks) are counted
// in each.
func (s *Set) RetainedBytes() int {
	if s == nil {
		return 0
	}
	n := int(unsafe.Sizeof(Set{})) + cap(s.cs)*int(unsafe.Sizeof(chunk{}))
	for i := range s.cs {
		c := &s.cs[i]
		if c.bits != nil {
			n += int(unsafe.Sizeof(words{}))
		}
		n += 2 * cap(c.vals)
	}
	return n
}

// String lists s's IDs, consecutive ones as a range: "{1 3-7 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first, last := -1, -1
	flush := func() {
		if first < 0 {
			return
		}
		if b.Len() > 1 {
			b.WriteByte(' ')
		}
		if first == last {
			fmt.Fprint(&b, first)
		} else {
			fmt.Fprintf(&b, "%d-%d", first, last)
		}
	}
	s.Each(func(id int) {
		if id != last+1 || first < 0 {
			flush()
			first = id
		}
		last = id
	})
	flush()
	b.WriteByte('}')
	return b.String()
}

// Of returns the set of ids. It sorts ids in place. An ID outside
// 0..2^31-1 is a caller's bug and panics.
func Of(ids ...int) *Set {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if len(ids) > 0 && (ids[0] < 0 || ids[len(ids)-1] > maxID) {
		panic(fmt.Sprintf("idset: ID out of range in %d..%d", ids[0], ids[len(ids)-1]))
	}
	var buf [4]chunk
	out := buf[:0]
	for len(ids) > 0 {
		key := ids[0] >> chunkBits
		n := 1
		for n < len(ids) && ids[n]>>chunkBits == key {
			n++
		}
		vals := make([]uint16, n)
		for i, id := range ids[:n] {
			vals[i] = uint16(id)
		}
		out = append(out, fromSorted(uint16(key), vals))
		ids = ids[n:]
	}
	return newSet(out)
}

// Range returns the set of the IDs lo..hi-1, clipped to the IDs a set
// can hold.
func Range(lo, hi int) *Set {
	if hi <= 0 || lo >= hi {
		return nil
	}
	lo, end := max(lo, 0), min(hi-1, maxID) // end: the last ID
	if lo > end {
		return nil
	}
	out := make([]chunk, 0, end>>chunkBits-lo>>chunkBits+1)
	for key := lo >> chunkBits; key <= end>>chunkBits; key++ {
		base := key << chunkBits
		first, last := max(lo, base)-base, min(end, base+chunkSize-1)-base
		c := chunk{key: uint16(key), card: uint32(last - first + 1), kind: choose(last-first+1, 1)}
		switch {
		case c.kind == sparse:
			for v := first; v <= last; v++ {
				c.vals = append(c.vals, uint16(v))
			}
		case c.full():
			c.vals = fullRun
		default:
			c.vals = []uint16{uint16(first), uint16(last)}
		}
		out = append(out, c)
	}
	return newSet(out)
}

// Builder collects IDs to add to and remove from a base set, and builds
// the result once. An ID both added and removed ends up absent.
type Builder struct {
	base     *Set
	add, del []int
}

// NewBuilder starts a build from base (nil: the empty set).
func NewBuilder(base *Set) *Builder { return &Builder{base: base} }

// Add adds id to the set being built.
func (b *Builder) Add(id int) { b.add = append(b.add, id) }

// Remove removes id from the set being built.
func (b *Builder) Remove(id int) { b.del = append(b.del, id) }

// Build returns the built set: the base itself when the edits leave its
// IDs unchanged.
func (b *Builder) Build() *Set {
	s := b.base.Or(Of(b.add...)).AndNot(Of(b.del...))
	if s.Equal(b.base) {
		return b.base
	}
	return s
}
