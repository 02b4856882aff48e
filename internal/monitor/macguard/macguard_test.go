package macguard

import (
	"testing"

	"secext/internal/acl"
	"secext/internal/lattice"
	"secext/internal/monitor"
)

func classes(t *testing.T) (low, high lattice.Class) {
	t.Helper()
	lat, err := lattice.NewWithUniverse([]string{"low", "high"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return lat.MustClass("low"), lat.MustClass("high")
}

func flowReq(subject, object lattice.Class, modes acl.Mode) monitor.Request {
	return monitor.Request{
		Class:  subject,
		Object: monitor.Object{Path: "/obj", Class: object},
		Modes:  modes,
		Op:     monitor.OpAccess,
	}
}

func TestFlowRules(t *testing.T) {
	low, high := classes(t)
	g := New()
	cases := []struct {
		name       string
		sub, obj   lattice.Class
		modes      acl.Mode
		allow      bool
		wantReason string
	}{
		{"read up denied", low, high, acl.Read, false, "mac: subject does not dominate object (no read up)"},
		{"read down allowed", high, low, acl.Read, true, ""},
		{"write down denied", high, low, acl.Write, false, "mac: object does not dominate subject (no write down)"},
		{"write up allowed", low, high, acl.Write, true, ""},
		{"append up allowed", low, high, acl.WriteAppend, true, ""},
		{"append down denied", high, low, acl.WriteAppend, false, "mac: append would write down"},
		{"execute up denied", low, high, acl.Execute, false, "mac: subject does not dominate object (no read up)"},
		{"delete down denied", high, low, acl.Delete, false, "mac: object does not dominate subject (no write down)"},
	}
	for _, tc := range cases {
		v := g.Check(flowReq(tc.sub, tc.obj, tc.modes))
		if v.Allow != tc.allow || (!tc.allow && v.Reason != tc.wantReason) {
			t.Errorf("%s: verdict %+v", tc.name, v)
		}
	}
}

func TestContainerOps(t *testing.T) {
	low, high := classes(t)
	g := New()
	// Bind into a multilevel container: write-down waived, but the
	// subject must dominate the container.
	v := g.Check(monitor.Request{Class: high,
		Object: monitor.Object{Class: low, Multilevel: true}, Op: monitor.OpContainerBind})
	if !v.Allow {
		t.Errorf("bind above container denied: %+v", v)
	}
	v = g.Check(monitor.Request{Class: low,
		Object: monitor.Object{Class: high, Multilevel: true}, Op: monitor.OpContainerBind})
	if v.Allow || v.Reason != "mac: subject does not dominate container" {
		t.Errorf("bind into dominating container: %+v", v)
	}
	// Unbind carries no mandatory rule at all.
	v = g.Check(monitor.Request{Class: low,
		Object: monitor.Object{Class: high, Multilevel: true}, Op: monitor.OpContainerUnbind})
	if !v.Allow {
		t.Errorf("container unbind denied: %+v", v)
	}
}

func TestCreateAndRelabel(t *testing.T) {
	low, high := classes(t)
	g := New()
	if v := g.Check(monitor.Request{Class: low, NewClass: high, Op: monitor.OpCreate}); !v.Allow {
		t.Errorf("create above self denied: %+v", v)
	}
	v := g.Check(monitor.Request{Class: high, NewClass: low, Op: monitor.OpCreate})
	if v.Allow || v.Reason != "mac: new node class must dominate creator (no write down)" {
		t.Errorf("create below self: %+v", v)
	}

	// Relabel: must dominate the current class and not write down.
	v = g.Check(monitor.Request{Class: low,
		Object: monitor.Object{Class: high}, NewClass: high, Op: monitor.OpRelabel})
	if v.Allow || v.Reason != "mac: subject does not dominate current class" {
		t.Errorf("relabel of dominating object: %+v", v)
	}
	v = g.Check(monitor.Request{Class: high,
		Object: monitor.Object{Class: high}, NewClass: low, Op: monitor.OpRelabel})
	if v.Allow || v.Reason != "mac: relabel would write down" {
		t.Errorf("relabel downward: %+v", v)
	}
	if v := g.Check(monitor.Request{Class: high,
		Object: monitor.Object{Class: low}, NewClass: high, Op: monitor.OpRelabel}); !v.Allow {
		t.Errorf("legal relabel denied: %+v", v)
	}
}

func TestAdmit(t *testing.T) {
	low, high := classes(t)
	g := New()
	// A zero static class admits everyone.
	if v := g.Check(monitor.Request{Class: low, Op: monitor.OpAdmit}); !v.Allow {
		t.Errorf("dynamic binding denied: %+v", v)
	}
	if v := g.Check(monitor.Request{Class: high,
		Object: monitor.Object{Class: low}, Op: monitor.OpAdmit}); !v.Allow {
		t.Errorf("dominating caller denied: %+v", v)
	}
	v := g.Check(monitor.Request{Class: low,
		Object: monitor.Object{Class: high}, Op: monitor.OpAdmit})
	if v.Allow || v.Reason != "mac: caller does not dominate static class" {
		t.Errorf("dominated caller admitted: %+v", v)
	}
}

// TestFlowAllowsMatchesCheck cross-checks the flow helpers, on classes
// and on interned indices, against the guard's Check verdict for every
// class pair and every mode subset of the default (OpAccess) rule: the
// same decision and, for a denial, the same reason text.
func TestFlowAllowsMatchesCheck(t *testing.T) {
	g := New()
	lat, err := lattice.NewWithUniverse(
		[]string{"low", "high"},
		[]string{"a", "b"},
	)
	if err != nil {
		t.Fatal(err)
	}
	var classes []lattice.Class
	for _, lv := range []string{"low", "high"} {
		for _, cs := range [][]string{nil, {"a"}, {"b"}, {"a", "b"}} {
			classes = append(classes, lat.MustClass(lv, cs...))
		}
	}
	b := lattice.NewDominanceBuilder()
	for _, c := range classes {
		b.Add(c)
	}
	dom := b.Build()

	for i, subj := range classes {
		for j, obj := range classes {
			for modes := acl.Mode(0); modes <= acl.AllModes; modes++ {
				rq := monitor.Request{
					Class:  subj,
					Object: monitor.Object{Path: "/obj", Class: obj},
					Modes:  modes, Op: monitor.OpAccess,
				}
				oracle := g.Check(rq).Reason
				if got := FlowDenial(subj, obj, modes); got != oracle {
					t.Fatalf("FlowDenial(%s, %s, %s) = %q, Check = %q",
						subj, obj, modes, got, oracle)
				}
				if got := FlowDenialInterned(dom, i, j, modes); got != oracle {
					t.Fatalf("FlowDenialInterned(%s, %s, %s) = %q, Check = %q",
						subj, obj, modes, got, oracle)
				}
			}
		}
	}
}
