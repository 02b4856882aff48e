// Package policy implements a small textual policy language that
// configures a complete secext system: the lattice universe, principals
// and groups, the protected name space, and the ACL on every node. It
// exists so that the §2.2 organization scenario — and any deployment's
// protection state — can be written down, reviewed, and loaded as one
// artifact, the way mainstream systems express their protection state
// in /etc files the paper wants users to find familiar.
//
// Grammar (one directive per line, '#' starts a comment):
//
//	levels <name>...                 # trust levels, lowest first (required, once)
//	categories <name>...             # category universe (optional, once)
//	principal <name> class <label>   # register a principal at a class
//	group <name>                     # declare a group
//	member <group> <name-or-group>   # add a member (groups nest)
//	node <path> <kind> [multilevel] [class <label>]
//	service <path> [class <label>]   # method node awaiting a base handler
//	acl <path> <allow|deny> <who> <modes>
//	admit <pattern> class <label> [clamp <label>] [register]
//
// where <kind> is domain|interface|object|method|directory|file, <who>
// is a principal name, @group, or *, <modes> is an internal/acl mode
// list, and <label> is a lattice class label such as
// "organization:{dept-1}" (default: the bottom class). admit directives
// declare origin-based admission rules (internal/admission): <pattern>
// is an origin pattern ("local", "*.example.com", "*"), clamp forces a
// static class onto admitted manifests, and register auto-creates
// unknown principals at the rule's class. BuildAdmitter turns them into
// a live admission.Admitter.
package policy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"secext/internal/acl"
	"secext/internal/admission"
	"secext/internal/core"
	"secext/internal/lattice"
	"secext/internal/names"
	"secext/internal/principal"
)

// ErrSyntax reports a malformed policy text.
var ErrSyntax = errors.New("policy: syntax error")

// NodeDecl is one declared name-space node.
type NodeDecl struct {
	Path       string
	Kind       names.Kind
	Multilevel bool
	ClassLabel string // "" = bottom
	Service    bool   // method node to be wired to a base handler
}

// ACLDecl is one declared ACL entry.
type ACLDecl struct {
	Path  string
	Entry acl.Entry
}

// PrincipalDecl declares one principal.
type PrincipalDecl struct {
	Name       string
	ClassLabel string
}

// MemberDecl adds a member to a group.
type MemberDecl struct {
	Group, Member string
}

// AdmissionDecl declares one origin-based admission rule.
type AdmissionDecl struct {
	Pattern      string
	ClassLabel   string
	Clamp        string
	AutoRegister bool
}

// Policy is a parsed policy document.
type Policy struct {
	Levels     []string
	Categories []string
	Principals []PrincipalDecl
	Groups     []string
	Members    []MemberDecl
	Nodes      []NodeDecl
	ACLs       []ACLDecl
	Admissions []AdmissionDecl
}

var kindNames = map[string]names.Kind{
	"domain":    names.KindDomain,
	"interface": names.KindInterface,
	"object":    names.KindObject,
	"method":    names.KindMethod,
	"directory": names.KindDirectory,
	"file":      names.KindFile,
}

func syntaxErr(line int, format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrSyntax, line, fmt.Sprintf(format, args...))
}

// Parse reads a policy document.
func Parse(r io.Reader) (*Policy, error) {
	p := &Policy{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := p.directive(lineNo, fields); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.Levels) == 0 {
		return nil, fmt.Errorf("%w: no levels directive", ErrSyntax)
	}
	return p, nil
}

// ParseString parses a policy from a string.
func ParseString(s string) (*Policy, error) {
	return Parse(strings.NewReader(s))
}

func (p *Policy) directive(line int, fields []string) error {
	switch fields[0] {
	case "levels":
		if len(p.Levels) > 0 {
			return syntaxErr(line, "duplicate levels directive")
		}
		if len(fields) < 2 {
			return syntaxErr(line, "levels needs at least one name")
		}
		p.Levels = fields[1:]
	case "categories":
		if len(p.Categories) > 0 {
			return syntaxErr(line, "duplicate categories directive")
		}
		if len(fields) < 2 {
			return syntaxErr(line, "categories needs at least one name")
		}
		p.Categories = fields[1:]
	case "principal":
		if len(fields) != 4 || fields[2] != "class" {
			return syntaxErr(line, "usage: principal <name> class <label>")
		}
		p.Principals = append(p.Principals, PrincipalDecl{Name: fields[1], ClassLabel: fields[3]})
	case "group":
		if len(fields) != 2 {
			return syntaxErr(line, "usage: group <name>")
		}
		p.Groups = append(p.Groups, fields[1])
	case "member":
		if len(fields) != 3 {
			return syntaxErr(line, "usage: member <group> <name-or-group>")
		}
		p.Members = append(p.Members, MemberDecl{Group: fields[1], Member: fields[2]})
	case "node", "service":
		return p.nodeDirective(line, fields)
	case "acl":
		if len(fields) != 5 {
			return syntaxErr(line, "usage: acl <path> <allow|deny> <who> <modes>")
		}
		entry, err := acl.ParseEntry(strings.Join(fields[2:], " "))
		if err != nil {
			return syntaxErr(line, "%v", err)
		}
		p.ACLs = append(p.ACLs, ACLDecl{Path: fields[1], Entry: entry})
	case "admit":
		if len(fields) < 4 || fields[2] != "class" {
			return syntaxErr(line, "usage: admit <pattern> class <label> [clamp <label>] [register]")
		}
		decl := AdmissionDecl{Pattern: fields[1], ClassLabel: fields[3]}
		rest := fields[4:]
		for len(rest) > 0 {
			switch rest[0] {
			case "clamp":
				if len(rest) < 2 {
					return syntaxErr(line, "clamp needs a label")
				}
				decl.Clamp = rest[1]
				rest = rest[2:]
			case "register":
				decl.AutoRegister = true
				rest = rest[1:]
			default:
				return syntaxErr(line, "unexpected token %q", rest[0])
			}
		}
		p.Admissions = append(p.Admissions, decl)
	default:
		return syntaxErr(line, "unknown directive %q", fields[0])
	}
	return nil
}

func (p *Policy) nodeDirective(line int, fields []string) error {
	isService := fields[0] == "service"
	decl := NodeDecl{Service: isService}
	if len(fields) < 2 {
		return syntaxErr(line, "usage: %s <path> ...", fields[0])
	}
	decl.Path = fields[1]
	if _, err := names.SplitPath(decl.Path); err != nil {
		return syntaxErr(line, "%v", err)
	}
	rest := fields[2:]
	if isService {
		decl.Kind = names.KindMethod
	} else {
		if len(rest) == 0 {
			return syntaxErr(line, "node needs a kind")
		}
		k, ok := kindNames[rest[0]]
		if !ok || k == names.KindRoot {
			return syntaxErr(line, "unknown node kind %q", rest[0])
		}
		decl.Kind = k
		rest = rest[1:]
	}
	for len(rest) > 0 {
		switch rest[0] {
		case "multilevel":
			decl.Multilevel = true
			rest = rest[1:]
		case "class":
			if len(rest) < 2 {
				return syntaxErr(line, "class needs a label")
			}
			decl.ClassLabel = rest[1]
			rest = rest[2:]
		default:
			return syntaxErr(line, "unexpected token %q", rest[0])
		}
	}
	p.Nodes = append(p.Nodes, decl)
	return nil
}

// Build creates a fresh system and applies the whole policy to it.
// Node declarations are applied in document order, so parents must be
// declared before children. Service nodes are created but carry no base
// handler; wire them with core.System.AttachBase.
func (p *Policy) Build(opts core.Options) (*core.System, error) {
	opts.Levels = p.Levels
	opts.Categories = p.Categories
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	if err := p.Apply(sys); err != nil {
		return nil, err
	}
	return sys, nil
}

// Apply applies the declarations (principals, groups, nodes, ACLs) to
// an existing system whose lattice must already contain the policy's
// levels and categories.
func (p *Policy) Apply(sys *core.System) error {
	lat := sys.Lattice()
	for _, lv := range p.Levels {
		if _, err := lat.LevelByName(lv); err != nil {
			return fmt.Errorf("policy: %w", err)
		}
	}
	// Every registry declaration lands in one Registry.Apply: one freeze
	// and one epoch publication for the whole document. Membership edges
	// apply in document order; a cycle is a property of the edge set, so
	// any order over an acyclic final graph is accepted.
	edits := make([]principal.Edit, 0, len(p.Principals)+len(p.Groups)+len(p.Members))
	for _, pr := range p.Principals {
		class, err := lat.ParseClass(pr.ClassLabel)
		if err != nil {
			return fmt.Errorf("policy: principal %s: %w", pr.Name, err)
		}
		edits = append(edits, principal.AddPrincipal(pr.Name, class))
	}
	for _, g := range p.Groups {
		edits = append(edits, principal.AddGroup(g))
	}
	for _, m := range p.Members {
		edits = append(edits, principal.AddMember(m.Group, m.Member))
	}
	if _, err := sys.Registry().Apply(edits...); err != nil {
		return fmt.Errorf("policy: registry: %w", err)
	}
	for _, n := range p.Nodes {
		spec := core.NodeSpec{Path: n.Path, Kind: n.Kind, Multilevel: n.Multilevel}
		if n.ClassLabel != "" {
			class, err := lat.ParseClass(n.ClassLabel)
			if err != nil {
				return fmt.Errorf("policy: node %s: %w", n.Path, err)
			}
			spec.Class = class
		}
		if _, err := sys.CreateNode(spec); err != nil {
			return fmt.Errorf("policy: node %s: %w", n.Path, err)
		}
	}
	// Collect entries per path so multiple acl lines merge.
	perPath := make(map[string]*acl.ACL)
	var order []string
	for _, d := range p.ACLs {
		a, ok := perPath[d.Path]
		if !ok {
			a = acl.New()
			perPath[d.Path] = a
			order = append(order, d.Path)
		}
		a.Add(d.Entry)
	}
	// Install every ACL in one Apply: one name-tree freeze and one epoch
	// publication for the whole document instead of one per path.
	aclEdits := make([]names.Edit, 0, len(order))
	for _, path := range order {
		aclEdits = append(aclEdits, names.SetACL(path, perPath[path]))
	}
	if _, err := sys.Names().Apply(nil, lattice.Class{}, aclEdits...); err != nil {
		return fmt.Errorf("policy: acl: %w", err)
	}
	return nil
}

// Format renders the policy back into its textual form.
func (p *Policy) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "levels %s\n", strings.Join(p.Levels, " "))
	if len(p.Categories) > 0 {
		fmt.Fprintf(&b, "categories %s\n", strings.Join(p.Categories, " "))
	}
	for _, pr := range p.Principals {
		fmt.Fprintf(&b, "principal %s class %s\n", pr.Name, pr.ClassLabel)
	}
	for _, g := range p.Groups {
		fmt.Fprintf(&b, "group %s\n", g)
	}
	for _, m := range p.Members {
		fmt.Fprintf(&b, "member %s %s\n", m.Group, m.Member)
	}
	for _, n := range p.Nodes {
		if n.Service {
			fmt.Fprintf(&b, "service %s", n.Path)
		} else {
			kind := ""
			for name, k := range kindNames {
				if k == n.Kind {
					kind = name
					break
				}
			}
			fmt.Fprintf(&b, "node %s %s", n.Path, kind)
		}
		if n.Multilevel {
			b.WriteString(" multilevel")
		}
		if n.ClassLabel != "" {
			fmt.Fprintf(&b, " class %s", n.ClassLabel)
		}
		b.WriteByte('\n')
	}
	for _, d := range p.ACLs {
		fmt.Fprintf(&b, "acl %s %s\n", d.Path, d.Entry)
	}
	for _, d := range p.Admissions {
		fmt.Fprintf(&b, "admit %s class %s", d.Pattern, d.ClassLabel)
		if d.Clamp != "" {
			fmt.Fprintf(&b, " clamp %s", d.Clamp)
		}
		if d.AutoRegister {
			b.WriteString(" register")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BuildAdmitter turns the policy's admit directives into a live
// origin-based admission front end over the system's loader. Policies
// without admit directives yield an admitter that denies every origin
// (fail-closed).
func (p *Policy) BuildAdmitter(sys *core.System) (*admission.Admitter, error) {
	rules := make([]admission.Rule, 0, len(p.Admissions))
	for _, d := range p.Admissions {
		rules = append(rules, admission.Rule{
			Pattern:      d.Pattern,
			ClassLabel:   d.ClassLabel,
			StaticClamp:  d.Clamp,
			AutoRegister: d.AutoRegister,
		})
	}
	return admission.New(sys, rules)
}
