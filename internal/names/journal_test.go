package names

import (
	"fmt"
	"sync"
	"testing"

	"secext/internal/acl"
	"secext/internal/principal"
)

// TestJournalRecordsTransition: every publish appends one record whose
// fields describe the transition — version, shards, batch size, freeze
// and compile provenance, publish latency.
func TestJournalRecordsTransition(t *testing.T) {
	cf := newCompiledFixture(t)
	before := cf.srv.JournalLen()

	if err := cf.srv.SetACLUnchecked("/svc/fs/read",
		acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List|acl.Read))); err != nil {
		t.Fatal(err)
	}
	if cf.srv.JournalLen() != before+1 {
		t.Fatalf("JournalLen = %d, want %d", cf.srv.JournalLen(), before+1)
	}

	recs := cf.srv.Journal(1)
	if len(recs) != 1 {
		t.Fatalf("Journal(1) returned %d records", len(recs))
	}
	r := recs[0]
	if r.Version != cf.srv.Version() {
		t.Errorf("record version %d, current epoch %d", r.Version, cf.srv.Version())
	}
	if r.Time.IsZero() {
		t.Error("record has no publish time")
	}
	if len(r.Shards) != 1 || r.Shards[0] != "names" {
		t.Errorf("shards = %v, want [names]", r.Shards)
	}
	if r.BatchSize < 1 {
		t.Errorf("batch size = %d, want >= 1", r.BatchSize)
	}
	ep := cf.srv.Current()
	if r.RegistryVersion != ep.Registry().Version() {
		t.Errorf("registry version %d, epoch carries %d", r.RegistryVersion, ep.Registry().Version())
	}
	switch r.Compile {
	case "full", "incremental", "reused":
	default:
		t.Errorf("compile kind %q on a registry-attached server", r.Compile)
	}
	if r.PublishNS <= 0 {
		t.Errorf("publish latency %dns, want positive", r.PublishNS)
	}
}

// TestJournalShardAndFreezeKinds: registry transitions are journaled
// with the registry shard named and the incremental-freeze bit
// reflecting the frozen snapshot's delta base.
func TestJournalShardAndFreezeKinds(t *testing.T) {
	cf := newCompiledFixture(t)
	if _, err := cf.reg.Apply(principal.AddMember("eng", "bob")); err != nil {
		t.Fatal(err)
	}
	r := cf.srv.Journal(1)[0]
	found := false
	for _, s := range r.Shards {
		if s == "registry" {
			found = true
		}
	}
	if !found {
		t.Errorf("registry transition journaled with shards %v", r.Shards)
	}
	wantIncr := r.RegistryDeltaBase != 0
	if r.IncrementalFreeze != wantIncr {
		t.Errorf("incremental_freeze = %v with delta base %d", r.IncrementalFreeze, r.RegistryDeltaBase)
	}
}

// TestJournalNoRegistry: a server without a registry journals
// compile="none" and zero registry provenance.
func TestJournalNoRegistry(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	r := f.srv.Journal(1)[0]
	if r.Compile != "none" {
		t.Errorf("compile = %q without a registry, want none", r.Compile)
	}
	if r.RegistryVersion != 0 || r.IncrementalFreeze {
		t.Errorf("registry provenance (%d, %v) on a registry-less server",
			r.RegistryVersion, r.IncrementalFreeze)
	}
}

// TestJournalRingWraparound: more publishes than journalCap retain
// exactly the newest journalCap records, newest first, versions
// strictly descending.
func TestJournalRingWraparound(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	open := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
	wide := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List|acl.Read))
	for i := 0; i < journalCap+40; i++ {
		a := open
		if i%2 == 0 {
			a = wide
		}
		if err := f.srv.SetACLUnchecked("/svc/fs/read", a); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.srv.JournalLen(); got != journalCap {
		t.Fatalf("JournalLen after wraparound = %d, want %d", got, journalCap)
	}
	recs := f.srv.Journal(0)
	if len(recs) != journalCap {
		t.Fatalf("Journal(0) returned %d records, want %d", len(recs), journalCap)
	}
	if recs[0].Version != f.srv.Version() {
		t.Errorf("newest record v%d, current epoch v%d", recs[0].Version, f.srv.Version())
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Version >= recs[i-1].Version {
			t.Fatalf("records not newest-first at %d: v%d then v%d",
				i, recs[i-1].Version, recs[i].Version)
		}
	}
	// A bounded request returns exactly n.
	if got := len(f.srv.Journal(7)); got != 7 {
		t.Errorf("Journal(7) returned %d records", got)
	}
}

// TestJournalConcurrentSnapshot: snapshots run against live writers
// without locks; under -race this proves the ring is data-race free
// and every observed record is a real, untorn transition.
func TestJournalConcurrentSnapshot(t *testing.T) {
	f := newFixture(t)
	f.mkTree(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := acl.New(acl.Allow("root", acl.AllModes), acl.AllowEveryone(acl.List))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/svc/w%d-%d", w, i)
				if _, err := f.srv.BindUnchecked("/svc", BindSpec{
					Name: fmt.Sprintf("w%d-%d", w, i), Kind: KindDomain, ACL: a, Class: f.bot,
				}); err != nil {
					t.Errorf("bind %s: %v", path, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, r := range f.srv.Journal(0) {
			if r.Version == 0 || r.Time.IsZero() || len(r.Shards) == 0 {
				t.Fatalf("torn record observed: %+v", r)
			}
		}
	}
	close(stop)
	wg.Wait()
}
