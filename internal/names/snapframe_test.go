package names

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// joinFrames concatenates frames into one stream, as they travel.
func joinFrames(frames [][]byte) []byte { return bytes.Join(frames, nil) }

// splitFrames cuts a stream into lines without their newlines.
func splitFrames(stream []byte) [][]byte {
	lines := bytes.SplitAfter(stream, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// encodeFrames returns w's frames; it fails the test on an encode error.
func encodeFrames(t testing.TB, w *EpochWire) [][]byte {
	t.Helper()
	var frames [][]byte
	if err := EncodeEpoch(w, func(f []byte) error {
		frames = append(frames, f)
		return nil
	}); err != nil {
		t.Fatalf("EncodeEpoch: %v", err)
	}
	return frames
}

// TestSnapshotFramesRoundTrip: names and ACLs with spaces, '%',
// newlines and control bytes survive the frames; a table larger than a
// frame is cut at field boundaries with every frame inside the target;
// a field larger than the target travels alone; a field larger than a
// line fails the encode.
func TestSnapshotFramesRoundTrip(t *testing.T) {
	f, _ := wirePrimary(t)
	odd := []string{"a b", "100%", "new\nline", "tab\tand\x7fdel", "plain"}
	for _, name := range odd {
		if _, err := f.srv.BindUnchecked("/svc/home", BindSpec{Name: name, Kind: KindFile, ACL: acl.New(acl.Allow("alice", acl.Read)), Class: f.bot}); err != nil {
			t.Fatal(err)
		}
	}
	specs := make([]SubtreeSpec, 0, 20_001)
	specs = append(specs, SubtreeSpec{Path: "wide", Kind: KindDirectory, ACL: acl.New(acl.Allow("root", acl.AllModes)), Class: f.bot})
	for i := 0; i < 20_000; i++ {
		specs = append(specs, SubtreeSpec{Path: fmt.Sprintf("wide/leaf%05d", i), Kind: KindFile, ACL: acl.New(acl.Allow(fmt.Sprintf("u%d", i%50), acl.Read)), Class: f.org})
	}
	if _, _, err := f.srv.BindSubtreeUnchecked("/", specs); err != nil {
		t.Fatal(err)
	}
	m := newMirror(t, f.srv)
	if diff := wireEquivalent(f.srv.Current(), m.srv.Current()); diff != "" {
		t.Fatalf("mirror differs: %s", diff)
	}
	for _, name := range odd {
		if _, err := m.srv.Current().Lookup("/svc/home/" + name); err != nil {
			t.Errorf("%q lost in transit: %v", name, err)
		}
	}
	wire, err := f.srv.Current().WireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := m.srv.BuildEpoch(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.ApplyReplicated(ReplicaApply{PrimaryVersion: 1, Tree: foreign}); err == nil {
		t.Fatal("a tree built for another server installed")
	}
	frames := snapshotFrames(t, f.srv.Current())
	if len(frames) < 4 {
		t.Fatalf("%d frames for a 20k-row tree, want the rows cut into several", len(frames))
	}
	for i, fr := range frames {
		if len(fr) > frameTarget || bytes.IndexByte(fr, '\n') != len(fr)-1 {
			t.Fatalf("frame %d: %d bytes, newline at %d", i, len(fr), bytes.IndexByte(fr, '\n'))
		}
	}

	big := &EpochWire{Version: 1, Levels: []string{"low"}, ACLs: []string{strings.Repeat("x", 2*frameTarget)}, Classes: []string{"low"},
		Rows: []RowWire{{Parent: -1}}}
	frames = encodeFrames(t, big)
	if len(frames) != 4 || len(frames[1]) != len("SNAP ")+2*frameTarget+1 {
		t.Fatalf("an oversize field: %d frames, second of %d bytes", len(frames), len(frames[1]))
	}
	back, err := DecodeEpoch(frameSource(frames))
	if err != nil || back.ACLs[0] != big.ACLs[0] {
		t.Fatalf("oversize field round trip: %v", err)
	}
	big.ACLs[0] = strings.Repeat("x", MaxFrame)
	if err := EncodeEpoch(big, func([]byte) error { return nil }); err == nil {
		t.Fatal("a field longer than a line encoded")
	}
	for _, table := range []string{"acls", "classes", "principals", "groups", "deletes", "rows"} {
		huge := fmt.Sprintf("SNAP-HEAD {\"version\":1,\"levels\":[\"l\"],\"%s\":1000000000}\nSNAP x\nSNAP-END\n", table)
		if _, err := DecodeEpoch(frameSource(splitFrames([]byte(huge)))); err == nil {
			t.Fatalf("a header announcing 10^9 %s decoded from one field", table)
		}
	}
	stop := errors.New("stop")
	if err := EncodeEpoch(back, func([]byte) error { return stop }); err != stop {
		t.Fatalf("emit error: got %v", err)
	}
}

// FuzzSnapshotStream: decoding arbitrary frames never panics. A
// snapshot installs on an empty server and a delta on a mirror of the
// fixture's base epoch. Either the message fails — DecodeEpoch,
// BuildEpoch, or ApplyReplicated, which then has published nothing — or
// it yields a tree that re-encodes to the frames the decoded message
// encodes to: the snapshot of the new tree, or the diff from the base.
// The registry, lattice and stack are replayed outside this path, so
// the comparison covers the ACL and class tables, the deletes and every
// row.
func FuzzSnapshotStream(f *testing.F) {
	fx, _ := wirePrimary(f)
	base := fx.srv.Current()
	baseFrames := snapshotFrames(f, base)
	f.Add(joinFrames(baseFrames))
	delta := func(mutate func() error) {
		if err := mutate(); err != nil {
			f.Fatal(err)
		}
		d, err := DiffEpochs(base, fx.srv.Current())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(joinFrames(encodeFrames(f, d)))
	}
	delta(func() error {
		_, err := fx.srv.BindUnchecked("/svc/home", BindSpec{Name: "a b%", Kind: KindDirectory, ACL: acl.New(), Class: fx.org, Multilevel: true})
		return err
	})
	delta(func() error {
		_, err := fx.srv.BindUnchecked("/svc/home/a b%", BindSpec{Name: "leaf", Kind: KindFile, ACL: acl.New(acl.Allow("bob", acl.Read)), Class: fx.org})
		return err
	})
	delta(func() error { _, err := fx.srv.Apply(fx.root, fx.org, Unbind("/svc/home/f1")); return err })
	delta(func() error { return fx.srv.SetACLUnchecked("/svc/home", acl.New(acl.Allow("alice", acl.List))) })
	delta(func() error { fx.srv.PublishStack(fx.srv.Current().Stack()); return nil })
	good := joinFrames(snapshotFrames(f, fx.srv.Current()))
	f.Add(good)
	f.Add(bytes.Replace(good, []byte(" 1 1 0 "), []byte(" 1 1 7 "), 1))
	f.Add(bytes.Replace(good, []byte("SNAP-END"), []byte("SNAP 0"), 1))
	f.Add([]byte("SNAP-HEAD {\"version\":1,\"levels\":[\"l\"],\"acls\":1,\"classes\":1,\"rows\":2}\nSNAP (empty) l -1 / 0 0 0 0 0 x 0 0 0 0\nSNAP-END\n"))
	f.Add([]byte("SNAP-HEAD {\"from\":9,\"version\":10,\"acls\":1,\"classes\":1,\"deletes\":1,\"rows\":1}\nSNAP (empty) low /svc/home/f1 -1 /svc/x 3 0 0 0\nSNAP-END\n"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		wire, err := DecodeEpoch(frameSource(splitFrames(stream)))
		if err != nil {
			return
		}
		var srv *Server
		if wire.From == 0 {
			lat, err := lattice.NewWithUniverse(wire.Levels, wire.Categories)
			if err != nil {
				return
			}
			bot, _ := lat.Bottom()
			srv = NewServer(lat, acl.New(), bot)
		} else {
			srv = mirrorFrom(t, baseFrames).srv
		}
		prev := srv.Current()
		tree, err := srv.BuildEpoch(wire)
		if err == nil {
			_, err = srv.ApplyReplicated(ReplicaApply{PrimaryVersion: wire.Version, Tree: tree})
		}
		if err != nil {
			if srv.Current() != prev {
				t.Fatalf("a failed message published v%d: %v", srv.Version(), err)
			}
			return
		}
		if wire.From == 0 {
			prev = nil
		}
		got, err := DiffEpochs(prev, srv.Current())
		if err != nil {
			t.Fatalf("re-encoding an installed message: %v", err)
		}
		got.From, got.Version, got.Levels, got.Categories, got.Stack = wire.From, wire.Version, wire.Levels, wire.Categories, wire.Stack
		got.Principals, got.Groups = wire.Principals, wire.Groups
		want, have := joinFrames(encodeFrames(t, wire)), joinFrames(encodeFrames(t, got))
		if !bytes.Equal(want, have) {
			t.Fatalf("installed message re-encodes differently:\n decoded: %.300q\n rebuilt: %.300q", want, have)
		}
	})
}
