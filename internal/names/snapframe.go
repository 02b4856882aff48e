package names

// Epoch frames: the line-protocol form of an EpochWire, snapshot and
// delta alike.
//
// A message travels as a sequence of lines, each at most MaxFrame
// bytes with its newline, so a receiver's scanner never needs a buffer
// larger than the protocol's line bound:
//
//	SNAP-HEAD <json>   base and target versions, the lattice entries
//	                   added, the guard stack (null: unchanged), and
//	                   the length of every table
//	SNAP <field>...    the tables, the deletes, then the rows, as one
//	                   field stream cut into frames at field boundaries
//	SNAP-END
//
// The field stream lists, in order: each ACL string; each class label;
// each principal as name and class label; each group as name, member
// count and members; each deleted path; each row as parent index, name,
// kind, ACL index, class index and multilevel flag (0 or 1). Every
// field is preceded by one space. A string field writes '%', space,
// control bytes and DEL as %XX, so any name or ACL fits one field and
// no frame holds a newline. Numbers are decimal.
//
// The codec is hand-written rather than reflection JSON: a row is a
// few bytes to scan, and the frames can be encoded once per epoch and
// sent to every subscriber as they are.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

const (
	// MaxFrame bounds one frame, newline included: the line
	// protocol's 1 MiB line.
	MaxFrame = 1 << 20
	// frameTarget is where the encoder cuts frames. Smaller frames let
	// the receiver decode while the sender still encodes; a field longer
	// than this travels in a frame of its own, up to MaxFrame.
	frameTarget = 64 << 10

	frameHead = "SNAP-HEAD"
	frameData = "SNAP"
	frameEnd  = "SNAP-END"
)

// snapHeader is the SNAP-HEAD frame's JSON: the message's scalar
// fields and the length of each table in the field stream. Zero fields
// are left out, except the stack, whose null (unchanged) differs from
// an empty list.
type snapHeader struct {
	From       uint64   `json:"from,omitempty"`
	Version    uint64   `json:"version"`
	Levels     []string `json:"levels,omitempty"`
	Categories []string `json:"categories,omitempty"`
	Stack      []string `json:"stack"`
	ACLs       int      `json:"acls,omitempty"`
	Classes    int      `json:"classes,omitempty"`
	Principals int      `json:"principals,omitempty"`
	Groups     int      `json:"groups,omitempty"`
	Deletes    int      `json:"deletes,omitempty"`
	Rows       int      `json:"rows,omitempty"`
}

// EncodeEpoch frames w, calling emit once per frame, in stream
// order. Each frame is one protocol line with its newline, and emit
// owns it: the encoder never touches a frame again.
func EncodeEpoch(w *EpochWire, emit func(frame []byte) error) error {
	head, err := json.Marshal(snapHeader{
		From: w.From, Version: w.Version,
		Levels: w.Levels, Categories: w.Categories, Stack: w.Stack,
		ACLs: len(w.ACLs), Classes: len(w.Classes), Principals: len(w.Principals),
		Groups: len(w.Groups), Deletes: len(w.Deletes), Rows: len(w.Rows),
	})
	if err != nil {
		return err
	}
	frame := append(append(append(make([]byte, 0, len(frameHead)+len(head)+2), frameHead...), ' '), head...)
	if len(frame)+1 > MaxFrame {
		return fmt.Errorf("names: epoch header of %d bytes exceeds the frame bound", len(frame))
	}
	if err := emit(append(frame, '\n')); err != nil {
		return err
	}
	fw := frameWriter{emit: emit}
	for _, s := range w.ACLs {
		fw.str(s)
	}
	for _, s := range w.Classes {
		fw.str(s)
	}
	for _, p := range w.Principals {
		fw.str(p.Name)
		fw.str(p.Class)
	}
	for _, g := range w.Groups {
		fw.str(g.Name)
		fw.num(int64(len(g.Members)))
		for _, m := range g.Members {
			fw.str(m)
		}
	}
	for _, path := range w.Deletes {
		fw.str(path)
	}
	for _, r := range w.Rows {
		fw.num(int64(r.Parent))
		fw.str(r.Name)
		fw.num(int64(r.Kind))
		fw.num(int64(r.ACL))
		fw.num(int64(r.Class))
		if r.Multilevel {
			fw.num(1)
		} else {
			fw.num(0)
		}
	}
	fw.flush()
	if fw.err != nil {
		return fw.err
	}
	return emit([]byte(frameEnd + "\n"))
}

// frameWriter cuts the field stream into SNAP frames. The first error
// sticks and turns every later call into a no-op. A frame's buffer
// grows as fields arrive, so a one-row delta costs a few hundred bytes;
// once one frame has reached the target, every later one starts at the
// target's size.
type frameWriter struct {
	emit func([]byte) error
	buf  []byte
	size int // the capacity a new frame starts with
	err  error
}

func (fw *frameWriter) str(s string) {
	if fw.err != nil {
		return
	}
	start := fw.openField()
	fw.buf = appendEscaped(fw.buf, s)
	fw.cut(start)
}

func (fw *frameWriter) num(n int64) {
	if fw.err != nil {
		return
	}
	start := fw.openField()
	fw.buf = strconv.AppendInt(fw.buf, n, 10)
	fw.cut(start)
}

// openField starts a field, opening a frame if none is open, and
// returns the field's offset (its separating space).
func (fw *frameWriter) openField() int {
	if len(fw.buf) == 0 {
		fw.buf = append(make([]byte, 0, max(fw.size, 256)), frameData...)
	}
	start := len(fw.buf)
	fw.buf = append(fw.buf, ' ')
	return start
}

// cut applies the frame rule to the field that begins at start: a frame
// holds as many whole fields as keep it within frameTarget, and a field
// that alone passes frameTarget is sent in a frame of its own.
func (fw *frameWriter) cut(start int) {
	if len(fw.buf)+1 <= frameTarget {
		return
	}
	fw.size = frameTarget + 256
	if start > len(frameData) {
		// The field does not fit behind the others: they go out first.
		field := fw.buf[start:]
		next := append(make([]byte, 0, max(fw.size, len(frameData)+len(field)+1)), frameData...)
		next = append(next, field...)
		fw.buf = fw.buf[:start]
		fw.flush()
		fw.buf = next
	}
	if len(fw.buf)+1 > MaxFrame {
		fw.err = fmt.Errorf("names: epoch field of %d bytes exceeds the frame bound", len(fw.buf)-len(frameData)-1)
		return
	}
	if len(fw.buf)+1 > frameTarget {
		fw.flush()
	}
}

// flush emits the open frame, if any.
func (fw *frameWriter) flush() {
	if len(fw.buf) == 0 || fw.err != nil {
		return
	}
	fw.err = fw.emit(append(fw.buf, '\n'))
	fw.buf = nil
}

// escaped reports whether a string field writes b as %XX.
func escaped(b byte) bool { return b <= ' ' || b == '%' || b == 0x7f }

const hexDigits = "0123456789ABCDEF"

// appendEscaped appends s as one string field.
func appendEscaped(dst []byte, s string) []byte {
	i := 0
	for i < len(s) && !escaped(s[i]) {
		i++
	}
	if i == len(s) {
		return append(dst, s...)
	}
	dst = append(dst, s[:i]...)
	for ; i < len(s); i++ {
		if b := s[i]; escaped(b) {
			dst = append(dst, '%', hexDigits[b>>4], hexDigits[b&15])
		} else {
			dst = append(dst, b)
		}
	}
	return dst
}

// DecodeEpoch rebuilds a message from its frames. next returns each
// frame in turn without its newline; DecodeEpoch reads up to and
// including SNAP-END and no further. It checks the syntax and that the
// stream holds exactly the table lengths the header announces; what the
// rows mean is checked when BuildEpoch and ApplyReplicated install it.
// Row names, deleted paths and class labels, which an install only
// reads, are substrings of the frames next returned where they hold no
// escapes; the ACLs and the registry's names and members are copies, so
// what a receiver keeps of them does not hold a whole frame alive.
func DecodeEpoch(next func() (string, error)) (*EpochWire, error) {
	line, err := next()
	if err != nil {
		return nil, err
	}
	body, ok := strings.CutPrefix(line, frameHead+" ")
	if !ok {
		return nil, fmt.Errorf("names: expected a %s frame, got %.40q", frameHead, line)
	}
	var h snapHeader
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		return nil, fmt.Errorf("names: decoding epoch header: %w", err)
	}
	switch {
	case h.Version == 0:
		return nil, fmt.Errorf("names: message carries no epoch")
	case h.From >= h.Version:
		return nil, fmt.Errorf("names: message from v%d does not advance to v%d", h.From, h.Version)
	case h.From == 0 && len(h.Levels) == 0:
		return nil, fmt.Errorf("names: snapshot carries no lattice levels")
	case h.ACLs < 0 || h.Classes < 0 || h.Principals < 0 || h.Groups < 0 || h.Deletes < 0 || h.Rows < 0:
		return nil, fmt.Errorf("names: epoch header has a negative table length")
	}
	w := &EpochWire{
		From: h.From, Version: h.Version,
		Levels: h.Levels, Categories: h.Categories, Stack: h.Stack,
		ACLs:       make([]string, 0, prealloc(h.ACLs)),
		Classes:    make([]string, 0, prealloc(h.Classes)),
		Principals: make([]PrincipalWire, 0, prealloc(h.Principals)),
		Groups:     make([]GroupWire, 0, prealloc(h.Groups)),
		Deletes:    make([]string, 0, prealloc(h.Deletes)),
		Rows:       make([]RowWire, 0, prealloc(h.Rows)),
	}
	// Every loop stops at the first error, so a header announcing more
	// than the stream holds costs one failed read, not its count.
	r := fieldReader{next: next}
	for i := 0; i < h.ACLs && r.err == nil; i++ {
		w.ACLs = append(w.ACLs, r.own())
	}
	for i := 0; i < h.Classes && r.err == nil; i++ {
		w.Classes = append(w.Classes, r.str())
	}
	for i := 0; i < h.Principals && r.err == nil; i++ {
		w.Principals = append(w.Principals, PrincipalWire{Name: r.own(), Class: r.str()})
	}
	for i := 0; i < h.Groups && r.err == nil; i++ {
		g := GroupWire{Name: r.own()}
		n := int(r.num(0, 1<<31-1))
		g.Members = make([]string, 0, prealloc(n))
		for j := 0; j < n && r.err == nil; j++ {
			g.Members = append(g.Members, r.own())
		}
		w.Groups = append(w.Groups, g)
	}
	for i := 0; i < h.Deletes && r.err == nil; i++ {
		w.Deletes = append(w.Deletes, r.str())
	}
	for i := 0; i < h.Rows && r.err == nil; i++ {
		w.Rows = append(w.Rows, RowWire{
			Parent:     int32(r.num(-1, 1<<31-1)),
			Name:       r.str(),
			Kind:       uint8(r.num(0, 255)),
			ACL:        uint32(r.num(0, 1<<32-1)),
			Class:      uint32(r.num(0, 1<<32-1)),
			Multilevel: r.num(0, 1) == 1,
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.rest != "" {
		return nil, fmt.Errorf("names: message holds more fields than its header announces")
	}
	if line, err = next(); err != nil {
		return nil, err
	}
	if line != frameEnd {
		return nil, fmt.Errorf("names: expected %s after %d rows, got %.40q", frameEnd, h.Rows, line)
	}
	return w, nil
}

// prealloc bounds a preallocation a header asks for, so a corrupt
// length costs an error, not the memory it names.
func prealloc(n int) int { return min(n, 1<<20) }

// fieldReader reads the SNAP field stream across frames. The first
// error sticks: later reads return zero values.
type fieldReader struct {
	next func() (string, error)
	// rest is the unread tail of the current frame; each field in it is
	// preceded by its space.
	rest  string
	err   error
	field int
}

// raw returns the next field as it appears on the wire.
func (r *fieldReader) raw() string {
	if r.err != nil {
		return ""
	}
	for r.rest == "" {
		line, err := r.next()
		if err != nil {
			r.err = err
			return ""
		}
		rest, ok := strings.CutPrefix(line, frameData)
		if !ok || rest == "" || rest[0] != ' ' {
			r.err = fmt.Errorf("names: epoch field %d: expected a %s frame, got %.40q", r.field, frameData, line)
			return ""
		}
		r.rest = rest
	}
	r.field++
	f := r.rest[1:]
	if i := strings.IndexByte(f, ' '); i >= 0 {
		f, r.rest = f[:i], f[i:]
	} else {
		r.rest = ""
	}
	return f
}

// str reads one string field, undoing its escapes.
func (r *fieldReader) str() string {
	f := r.raw()
	if strings.IndexByte(f, '%') < 0 {
		return f
	}
	out := make([]byte, 0, len(f))
	for i := 0; i < len(f); i++ {
		if f[i] != '%' {
			out = append(out, f[i])
			continue
		}
		hi, lo := unhex(f, i+1), unhex(f, i+2)
		if hi < 0 || lo < 0 {
			r.fail("bad escape in %.40q", f)
			return ""
		}
		out = append(out, byte(hi<<4|lo))
		i += 2
	}
	return string(out)
}

// own reads one string field as a string of its own.
func (r *fieldReader) own() string { return strings.Clone(r.str()) }

// unhex returns the value of the hex digit at f[i], or -1.
func unhex(f string, i int) int {
	if i >= len(f) {
		return -1
	}
	switch c := f[i]; {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}

// num reads one decimal field in [lo, hi].
func (r *fieldReader) num(lo, hi int64) int64 {
	f := r.raw()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(f, 10, 64)
	if err != nil || n < lo || n > hi {
		r.fail("number %.40q not in [%d, %d]", f, lo, hi)
		return 0
	}
	return n
}

func (r *fieldReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("names: epoch field %d: %s", r.field, fmt.Sprintf(format, args...))
	}
}
