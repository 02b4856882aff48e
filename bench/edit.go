package main

import (
	"fmt"
	"math/rand"
	"time"

	"secext/internal/acl"
	"secext/internal/core"
	"secext/internal/load"
	"secext/internal/names"
	"secext/internal/subject"
)

// Edit limits: an edit is fleet-visible when Barrier returns; one that
// fails, times out or leaves a replica disagreeing with the primary is
// recorded as taking at least editLimit.
const (
	editLimit      = time.Second
	barrierTimeout = 10 * time.Second
	// keptPairs bounds the epoch pairs a traced run keeps for the diff
	// and encode replays; each pins two epochs.
	keptPairs = 16
)

// editor is the admin closed loop: ACL replacements on leaves and
// membership toggles, each followed by the fleet barrier.
type editor struct {
	e    *env
	ctx  *subject.Context
	r    *rand.Rand
	pool []*acl.ACL
	// edits counts the edits loop has made.
	edits int
}

// newEditor enrolls the admin principal in every group, so it holds
// administrate through each pool ACL.
func newEditor(e *env, seed int64) (*editor, error) {
	sys, p := e.world.Sys, e.plan
	const name = "admin"
	if _, err := sys.AddPrincipal(name, "others"); err != nil {
		return nil, err
	}
	grants := make(map[string][]string, p.Groups)
	for g := 0; g < p.Groups; g++ {
		grants[load.GroupName(g)] = []string{name}
	}
	if _, err := sys.Registry().AddMemberships(grants); err != nil {
		return nil, err
	}
	ctx, err := sys.NewContext(name)
	if err != nil {
		return nil, err
	}
	pool := make([]*acl.ACL, p.ACLPool)
	for k := range pool {
		pool[k] = p.ACLPoolEntry(k)
	}
	return &editor{e: e, ctx: ctx, r: rand.New(rand.NewSource(seed*7_919 + 17)), pool: pool}, nil
}

// editResult accumulates one edit loop.
type editResult struct {
	vis     []time.Duration // edit call start until Barrier returns
	aclCall []time.Duration // System.SetACLAt
	memCall []time.Duration // Registry.AddMemberAt / RemoveMemberAt
	barrier []time.Duration
	ops     int
	failed  int
	wall    time.Duration
	pairs   [][2]*names.Epoch // (before, after) epochs of the first edits
	err     error
}

// step performs one edit: a membership toggle of a principal other than
// the load principals when member is set, otherwise a leaf ACL
// replaced by a pool entry. It then waits for the fleet and checks that
// every replica agrees with the primary.
func (ed *editor) step(member bool, res *editResult, tr *tracer, parent int64) {
	sys, p := ed.e.world.Sys, ed.e.plan
	ns := sys.Names()
	before := ns.Current()
	var (
		v      uint64
		err    error
		agrees func(*core.System) bool
		desc   string
		t0     time.Time
	)
	if member {
		who := load.PrincipalName(2 + ed.r.Intn(p.Principals-2))
		group := load.GroupName(ed.r.Intn(p.Groups))
		reg := sys.Registry()
		want := !reg.IsMember(who, group)
		t0 = time.Now()
		if want {
			v, err = reg.AddMemberAt(group, who)
		} else {
			v, err = reg.RemoveMemberAt(group, who)
		}
		agrees = func(s *core.System) bool { return s.Registry().IsMember(who, group) == want }
		desc = fmt.Sprintf("member %s in %s=%v", who, group, want)
	} else {
		l := ed.r.Intn(p.Leaves)
		for ed.e.relabel && relabelled(p, l/p.LeavesPerDir) {
			l = ed.r.Intn(p.Leaves) // hidden from the admin's class
		}
		path := p.LeafPath(l)
		a := ed.pool[ed.r.Intn(len(ed.pool))]
		t0 = time.Now()
		v, err = sys.SetACLAt(ed.ctx, path, a)
		want := a.String()
		agrees = func(s *core.System) bool {
			got, err := s.Names().ACLOf(path)
			return err == nil && got.String() == want
		}
		desc = "set-acl " + path
	}
	t1 := time.Now()
	if err == nil && ed.e.pub != nil {
		err = ed.e.pub.Barrier(v, barrierTimeout)
	}
	t2 := time.Now()

	res.ops++
	vis := t2.Sub(t0)
	if err == nil && !agrees(sys) {
		err = fmt.Errorf("primary does not show the edit")
	}
	for i, r := range ed.e.replicas {
		if err == nil && !agrees(r.System()) {
			err = fmt.Errorf("replica %d disagrees with the primary", i)
		}
	}
	if err != nil {
		res.failed++
		vis = max(vis, editLimit)
		if res.err == nil {
			res.err = fmt.Errorf("%s: %w", desc, err)
		}
	}
	res.vis = append(res.vis, vis)
	if member {
		res.memCall = append(res.memCall, t1.Sub(t0))
	} else {
		res.aclCall = append(res.aclCall, t1.Sub(t0))
	}
	if ed.e.pub != nil {
		res.barrier = append(res.barrier, t2.Sub(t1))
	}
	if tr != nil && len(res.pairs) < keptPairs {
		res.pairs = append(res.pairs, [2]*names.Epoch{before, ns.Current()})
	}
	if tr != nil {
		id := tr.add(parent, "edit", t0, t2)
		call := "names.edit_call"
		if member {
			call = "principal.member_call"
		}
		tr.add(id, call, t0, t1)
		if ed.e.pub != nil {
			tr.add(id, "replica.barrier", t1, t2)
		}
	}
}

// loop runs the 90/10 ACL/membership mix until the deadline, adding to
// res. Every tenth edit is a membership toggle: a toggle takes over ten
// times as long as an ACL edit, so a share drawn per edit would move
// the edit rate and latencies with the seed.
func (ed *editor) loop(until time.Time, res *editResult, tr *tracer, parent int64) {
	start := time.Now()
	for time.Now().Before(until) {
		ed.edits++
		ed.step(ed.edits%10 == 0, res, tr, parent)
	}
	res.wall += time.Since(start)
}
