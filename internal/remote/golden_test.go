package remote

import (
	"net"
	"testing"

	"secext"
	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/names"
)

// TestCheckReplyGolden pins the exact bytes of the CHECK reply for an
// allow, for each denial the default [dac, mac] stack renders (a missing
// grant, an ancestor hidden by its ACL or by its class, a read up, a
// write down, an append down) and for the two request errors (an
// unbound path, an unknown mode). The denial text is the walk's
// DeniedError, whichever path decided it.
func TestCheckReplyGolden(t *testing.T) {
	w, err := secext.NewWorld(secext.WorldOptions{
		Levels:     []string{"others", "organization", "local"},
		Categories: []string{"dept-1", "dept-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sys.AddPrincipal("alice", "organization:{dept-1}"); err != nil {
		t.Fatal(err)
	}
	tok, err := w.Sys.Registry().IssueToken("alice")
	if err != nil {
		t.Fatal(err)
	}
	class := func(label string) secext.Class {
		c, err := w.Sys.ParseClass(label)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, spec := range []core.NodeSpec{
		{Path: "/g", Kind: names.KindDirectory, ACL: acl.New(acl.AllowEveryone(acl.List))},
		{Path: "/g/doc", Kind: names.KindFile, ACL: acl.New(acl.Allow("alice", acl.Read))},
		{Path: "/g/closed", Kind: names.KindDirectory, ACL: acl.New(acl.Allow("eve", acl.List))},
		{Path: "/g/closed/x", Kind: names.KindFile, ACL: acl.New(acl.AllowEveryone(acl.AllModes))},
		{Path: "/g/high", Kind: names.KindDirectory, ACL: acl.New(acl.AllowEveryone(acl.List)), Class: class("local")},
		{Path: "/g/high/x", Kind: names.KindFile, ACL: acl.New(acl.AllowEveryone(acl.AllModes))},
		{Path: "/g/secret", Kind: names.KindFile, ACL: acl.New(acl.AllowEveryone(acl.AllModes)), Class: class("local")},
		{Path: "/g/low", Kind: names.KindFile, ACL: acl.New(acl.AllowEveryone(acl.AllModes))},
	} {
		if _, err := w.Sys.CreateNode(spec); err != nil {
			t.Fatalf("%s: %v", spec.Path, err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w.Sys)
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { srv.Close(); l.Close() })

	c := dial(t, l.Addr().String())
	c.expectOK("AUTH %s", tok)
	for _, tc := range []struct{ req, want string }{
		{"CHECK /g/doc read", "OK allowed\n"},
		{"CHECK /g/doc write", "ERR denied: names: access denied: write on /g/doc (acl: modes not granted)\n"},
		{"CHECK /g/closed/x read", "ERR denied: names: access denied: list on /g/closed (acl: modes not granted)\n"},
		{"CHECK /g/high/x read", "ERR denied: names: access denied: list on /g/high (mac: subject does not dominate object (no read up))\n"},
		{"CHECK /g/secret read,write", "ERR denied: names: access denied: read,write on /g/secret (mac: subject does not dominate object (no read up))\n"},
		{"CHECK /g/low write", "ERR denied: names: access denied: write on /g/low (mac: object does not dominate subject (no write down))\n"},
		{"CHECK /g/low write-append", "ERR denied: names: access denied: write-append on /g/low (mac: append would write down)\n"},
		{"CHECK /g/nope read", "ERR names: no such name: /g/nope\n"},
		{"CHECK /g/doc frob", "ERR acl: unknown access mode \"frob\"\n"},
	} {
		// Twice: the second answer comes from the decision cache where
		// the first was computed.
		for round := 0; round < 2; round++ {
			c.send(tc.req)
			got, err := c.rd.ReadString('\n')
			if err != nil {
				t.Fatalf("%s: %v", tc.req, err)
			}
			if got != tc.want {
				t.Errorf("%s (round %d):\n got %q\nwant %q", tc.req, round, got, tc.want)
			}
		}
	}
}
