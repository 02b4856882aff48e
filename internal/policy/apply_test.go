package policy

import (
	"fmt"
	"strings"
	"testing"

	"secext/internal/core"
)

// TestApplyIsOneRegistryVersion: a document's principals, groups and
// memberships land in one Registry.Apply and its ACL lines in one
// names.Server.Apply, however many it declares.
func TestApplyIsOneRegistryVersion(t *testing.T) {
	for _, n := range []int{1, 10, 200} {
		groups := n/4 + 1
		var b strings.Builder
		b.WriteString("levels low high\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "principal p%d class low\n", i)
		}
		for g := 0; g < groups; g++ {
			fmt.Fprintf(&b, "group g%d\n", g)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "member g%d p%d\n", i%groups, i)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "node /n%d directory\nacl /n%d allow p%d read\n", i, i, i)
		}
		pol, err := ParseString(b.String())
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(core.Options{Levels: pol.Levels})
		if err != nil {
			t.Fatal(err)
		}
		reg0 := sys.Registry().Version()
		names0 := sys.Names().Stats().NameTransitions
		if err := pol.Apply(sys); err != nil {
			t.Fatal(err)
		}
		if got := sys.Registry().Version() - reg0; got != 1 {
			t.Errorf("%d principals, %d groups: registry moved %d versions, want 1", n, groups, got)
		}
		// One name transition per node declaration, plus one for every ACL.
		if got := sys.Names().Stats().NameTransitions - names0; got != uint64(n)+1 {
			t.Errorf("%d nodes with ACLs: %d name transitions, want %d", n, got, n+1)
		}
		if !sys.Registry().IsMember(fmt.Sprintf("p%d", n-1), fmt.Sprintf("g%d", (n-1)%groups)) {
			t.Errorf("%d principals: last membership missing", n)
		}
	}
}
