package names

import (
	"errors"
	"testing"

	"secext/internal/acl"
)

func TestMultilevelBind(t *testing.T) {
	f := newFixture(t)
	shared := acl.New(acl.AllowEveryone(acl.List | acl.Write))
	if _, err := f.srv.BindUnchecked("/", BindSpec{
		Name: "tmp", Kind: KindDirectory, ACL: shared, Class: f.bot, Multilevel: true,
	}); err != nil {
		t.Fatal(err)
	}
	n, _ := f.srv.ResolveUnchecked("/tmp")
	if !n.Multilevel() {
		t.Fatal("node must be multilevel")
	}

	// A subject above the directory's class can bind at its own class.
	bob := subj("bob")
	if _, err := f.srv.Apply(bob, f.org, Bind("/tmp", BindSpec{
		Name: "f1", Kind: KindFile, Class: f.org,
		ACL: acl.New(acl.Allow("bob", acl.Read|acl.Delete)),
	})); err != nil {
		t.Fatalf("bind above container class: %v", err)
	}
	// ... but still not below its own class (no write-down on the new
	// node's label).
	if _, err := f.srv.Apply(bob, f.org, Bind("/tmp", BindSpec{
		Name: "f2", Kind: KindFile, Class: f.bot,
	})); !errors.Is(err, ErrDenied) {
		t.Fatalf("write-down label in multilevel dir: got %v", err)
	}
	// DAC still applies: a subject without write on the directory fails.
	if err := f.srv.SetACLUnchecked("/tmp", acl.New(acl.AllowEveryone(acl.List))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(bob, f.org, Bind("/tmp", BindSpec{
		Name: "f3", Kind: KindFile, Class: f.org,
	})); !errors.Is(err, ErrDenied) {
		t.Fatalf("multilevel without DAC write: got %v", err)
	}

	// The name is visible at the container's class — the accepted
	// covert channel: a bottom-class subject lists f1 even though it
	// cannot read it.
	got, err := f.srv.List(subj("low"), f.bot, "/tmp")
	if err != nil || len(got) != 1 || got[0] != "f1" {
		t.Errorf("List = %v, %v", got, err)
	}
	if _, _, err := f.srv.CheckAccessAt(subj("low"), f.bot, "/tmp/f1", acl.Read); !errors.Is(err, ErrDenied) {
		t.Errorf("low read of high entry: got %v", err)
	}
}

func TestMultilevelUnbind(t *testing.T) {
	f := newFixture(t)
	shared := acl.New(acl.AllowEveryone(acl.List | acl.Write))
	if _, err := f.srv.BindUnchecked("/", BindSpec{
		Name: "tmp", Kind: KindDirectory, ACL: shared, Class: f.bot, Multilevel: true,
	}); err != nil {
		t.Fatal(err)
	}
	bob := subj("bob")
	if _, err := f.srv.Apply(bob, f.org, Bind("/tmp", BindSpec{
		Name: "f", Kind: KindFile, Class: f.org,
		ACL: acl.New(acl.Allow("bob", acl.Delete)),
	})); err != nil {
		t.Fatal(err)
	}
	// bob can remove his own entry although the container is below him.
	if _, err := f.srv.Apply(bob, f.org, Unbind("/tmp/f")); err != nil {
		t.Fatalf("multilevel unbind: %v", err)
	}
	// Without delete on the entry it fails regardless.
	if _, err := f.srv.Apply(bob, f.org, Bind("/tmp", BindSpec{
		Name: "g", Kind: KindFile, Class: f.org,
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(bob, f.org, Unbind("/tmp/g")); !errors.Is(err, ErrDenied) {
		t.Fatalf("unbind without delete: got %v", err)
	}
	// DAC write on the container still required for unbind.
	if _, err := f.srv.Apply(bob, f.org, Bind("/tmp", BindSpec{
		Name: "h", Kind: KindFile, Class: f.org,
		ACL: acl.New(acl.Allow("bob", acl.Delete)),
	})); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.SetACLUnchecked("/tmp", acl.New(acl.AllowEveryone(acl.List))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.Apply(bob, f.org, Unbind("/tmp/h")); !errors.Is(err, ErrDenied) {
		t.Fatalf("unbind without DAC write on container: got %v", err)
	}
}

func TestMultilevelLeafIgnored(t *testing.T) {
	f := newFixture(t)
	if _, err := f.srv.BindUnchecked("/", BindSpec{
		Name: "leaf", Kind: KindFile, Class: f.bot, Multilevel: true,
	}); err != nil {
		t.Fatal(err)
	}
	n, _ := f.srv.ResolveUnchecked("/leaf")
	if n.Multilevel() {
		t.Error("leaves cannot be multilevel containers")
	}
}
