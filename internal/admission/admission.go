// Package admission maps code origins to security classes, realizing
// the paper's §2 motivating policy: "applets originating from the local
// machine should have full access to all files, applets originating
// from within the same organization should have access to some files,
// and applets that originate from outside the organization should have
// no file access" — and its §2.2 refinement that outside code "might
// always run at the least level of trust", i.e. carry a forced static
// clamp regardless of what its manifest claims.
//
// An Admitter sits in front of the extension loader: it classifies the
// origin, auto-registers the responsible principal at the origin's
// class if needed, forces the origin's static clamp onto the manifest,
// and only then lets the normal verification/authentication/linking
// pipeline run. Origins with no matching rule are denied outright
// (fail-closed).
package admission

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"secext/internal/extension"
	"secext/internal/lattice"
	"secext/internal/principal"
)

// Errors returned by admission.
var (
	ErrNoRule  = errors.New("admission: no rule matches origin")
	ErrBadRule = errors.New("admission: invalid rule")
)

// Rule maps an origin pattern to an admission decision. Patterns are
// matched in order, first match wins:
//
//   - "local"            matches the literal origin "local";
//   - "*.example.com"    matches any host under example.com;
//   - "*"                matches everything (the catch-all).
type Rule struct {
	// Pattern selects origins.
	Pattern string
	// ClassLabel is the class given to principals auto-registered
	// under this rule.
	ClassLabel string
	// StaticClamp, if non-empty, is forced onto every admitted
	// manifest: the extension's effective static class becomes the meet
	// of its declared class (if any) and this clamp. This is how
	// "applets that originate outside ... always run at the least level
	// of trust".
	StaticClamp string
	// AutoRegister creates unknown principals at ClassLabel. Without
	// it, manifests naming unknown principals fail authentication as
	// usual.
	AutoRegister bool
}

// Host is the subset of the loader's host the admitter needs, plus the
// registry for auto-registration. core.System satisfies it.
type Host interface {
	extension.Host
	Lattice() *lattice.Lattice
	Registry() *principal.Registry
	Loader() *extension.Loader
}

// Admitter classifies origins and admits manifests.
type Admitter struct {
	host  Host
	rules []Rule

	mu sync.Mutex // serializes auto-registration
}

// New validates the rules (labels must parse against the host lattice)
// and returns an admitter.
func New(host Host, rules []Rule) (*Admitter, error) {
	lat := host.Lattice()
	for i, r := range rules {
		if r.Pattern == "" {
			return nil, fmt.Errorf("%w: rule %d has empty pattern", ErrBadRule, i)
		}
		if _, err := lat.ParseClass(r.ClassLabel); err != nil {
			return nil, fmt.Errorf("%w: rule %d class: %v", ErrBadRule, i, err)
		}
		if r.StaticClamp != "" {
			if _, err := lat.ParseClass(r.StaticClamp); err != nil {
				return nil, fmt.Errorf("%w: rule %d clamp: %v", ErrBadRule, i, err)
			}
		}
	}
	return &Admitter{host: host, rules: append([]Rule(nil), rules...)}, nil
}

// Match returns the first rule matching origin.
func (a *Admitter) Match(origin string) (Rule, bool) {
	for _, r := range a.rules {
		if matches(r.Pattern, origin) {
			return r, true
		}
	}
	return Rule{}, false
}

func matches(pattern, origin string) bool {
	switch {
	case pattern == "*":
		return true
	case strings.HasPrefix(pattern, "*."):
		suffix := pattern[1:] // ".example.com"
		return strings.HasSuffix(origin, suffix) && len(origin) > len(suffix)
	default:
		return pattern == origin
	}
}

// Admit classifies the origin, prepares the manifest accordingly, and
// runs the loader's full admission pipeline.
func (a *Admitter) Admit(origin string, m extension.Manifest) (*extension.Loaded, error) {
	rule, ok := a.Match(origin)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRule, origin)
	}
	lat := a.host.Lattice()

	// Auto-register the principal at the origin's class and mint its
	// token. An already-registered principal keeps its class and must
	// present its own token.
	if rule.AutoRegister {
		a.mu.Lock()
		if _, err := a.host.Registry().Principal(m.Principal); err != nil {
			class, err := lat.ParseClass(rule.ClassLabel)
			if err != nil {
				a.mu.Unlock()
				return nil, err
			}
			if _, err := a.host.Registry().Apply(principal.AddPrincipal(m.Principal, class)); err != nil {
				a.mu.Unlock()
				return nil, err
			}
		}
		a.mu.Unlock()
		tok, err := a.host.Registry().IssueToken(m.Principal)
		if err != nil {
			return nil, err
		}
		m.Token = tok
	}

	// Force the origin's clamp: the effective static class is the meet
	// of the declared class and the rule's clamp, so a manifest can
	// narrow but never escape its origin's ceiling.
	if rule.StaticClamp != "" {
		clamp, err := lat.ParseClass(rule.StaticClamp)
		if err != nil {
			return nil, err
		}
		eff := clamp
		if m.StaticClass != "" {
			declared, err := lat.ParseClass(m.StaticClass)
			if err != nil {
				return nil, fmt.Errorf("%w: static class: %v", extension.ErrVerify, err)
			}
			eff = declared.Meet(clamp)
		}
		label, err := lat.Format(eff)
		if err != nil {
			return nil, err
		}
		m.StaticClass = label
	}

	return a.host.Loader().Load(m)
}

// Rules returns a copy of the rule list.
func (a *Admitter) Rules() []Rule {
	return append([]Rule(nil), a.rules...)
}
