package names

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
)

// TestPropTreeInvariants drives random bind/unbind/rename sequences and
// verifies after every operation that the tree is structurally sound:
// every reachable node's Path resolves back to the same node, parents
// and children agree, leaves have no children, and Size matches the
// walk.
func TestPropTreeInvariants(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t)
		open := acl.New(acl.AllowEveryone(acl.AllModes))

		// Track existing paths for random targeting.
		var paths []string
		collect := func() {
			paths = paths[:0]
			f.srv.Walk(func(p string, n *Node) {
				if p != "/" {
					paths = append(paths, p)
				}
			})
		}
		kinds := []Kind{KindDomain, KindInterface, KindObject, KindMethod, KindDirectory, KindFile}

		for step := 0; step < 300; step++ {
			collect()
			switch op := r.Intn(3); {
			case op == 0 || len(paths) == 0: // bind
				parent := "/"
				if len(paths) > 0 && r.Intn(2) == 0 {
					parent = paths[r.Intn(len(paths))]
				}
				name := fmt.Sprintf("n%d", step)
				kind := kinds[r.Intn(len(kinds))]
				_, err := f.srv.BindUnchecked(parent, BindSpec{
					Name: name, Kind: kind, ACL: open, Class: f.bot,
					Multilevel: r.Intn(4) == 0,
				})
				// ErrLeaf/ErrExists are legal outcomes; anything else
				// on a structurally valid request is not.
				if err != nil && !isExpectedBindErr(err) {
					t.Fatalf("seed %d step %d: bind under %s: %v", seed, step, parent, err)
				}
			case op == 1: // unbind
				target := paths[r.Intn(len(paths))]
				_, err := f.srv.Apply(nil, lattice.Class{}, Unbind(target))
				if err != nil && !isExpectedUnbindErr(err) {
					t.Fatalf("seed %d step %d: unbind %s: %v", seed, step, target, err)
				}
			case op == 2: // rename
				src := paths[r.Intn(len(paths))]
				dstParent := "/"
				if r.Intn(2) == 0 {
					dstParent = paths[r.Intn(len(paths))]
				}
				_, err := f.srv.Apply(subj("any"), f.top, Rename(src, dstParent, fmt.Sprintf("m%d", step)))
				// Access checks may deny (ACL is open but MAC applies);
				// structural rejections are fine too.
				_ = err
			}
			checkTree(t, f, seed, step)
		}
	}
}

func isExpectedBindErr(err error) bool {
	for _, want := range []error{ErrLeaf, ErrExists, ErrBadPath, ErrNotFound} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

func isExpectedUnbindErr(err error) bool {
	for _, want := range []error{ErrNotEmpty, ErrRoot, ErrNotFound} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

func checkTree(t *testing.T, f *fixture, seed int64, step int) {
	t.Helper()
	count := 0
	f.srv.Walk(func(p string, n *Node) {
		count++
		if n.Kind().Leaf() && len(n.children) != 0 {
			t.Fatalf("seed %d step %d: leaf %s has children", seed, step, p)
		}
		got, err := f.srv.ResolveUnchecked(p)
		if err != nil || got != n {
			t.Fatalf("seed %d step %d: path %s does not resolve to itself: %v", seed, step, p, err)
		}
		for i, cr := range n.children {
			if cr.node.Name() != cr.name() || cr.node.path != Join(p, cr.name()) {
				t.Fatalf("seed %d step %d: child path disagrees at %s/%s (name %q path %q)",
					seed, step, p, cr.name(), cr.node.Name(), cr.node.path)
			}
			if i > 0 && n.children[i-1].name() >= cr.name() {
				t.Fatalf("seed %d step %d: children of %s not strictly sorted (%q >= %q)",
					seed, step, p, n.children[i-1].name(), cr.name())
			}
		}
	})
	if got := f.srv.Size(); got != count {
		t.Fatalf("seed %d step %d: Size %d != walked %d", seed, step, got, count)
	}
}
