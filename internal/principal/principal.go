// Package principal manages the individuals and groups the paper's
// discretionary access control is expressed over (§2.1), plus the
// minimal authentication stub the model needs to attribute extensions to
// principals. The paper declares authentication itself out of scope; the
// stub exists only so loading an extension can name a responsible
// principal.
//
// Every principal carries a default security class (§2.2: "threads of
// control ... function at the same security class as the associated
// principal"); the reference monitor stamps that class onto the
// principal's subjects.
//
// Concurrency design: the registry's only state is an immutable Frozen
// value — identity tables plus the transitively closed group
// membership, precomputed into per-principal bitsets — published
// through one atomic pointer. Readers load the current Frozen and
// perform pure lookups with zero locks. A writer serializes on a
// writer-only mutex, derives the successor Frozen from the published
// one inside a per-call transaction (copying only the tables, rows and
// group records its edits touch), and publishes it only if every edit
// succeeded. The publish hook hands each new Frozen to the name server,
// which folds it into the next policy epoch, so a membership revocation
// reaches every future access decision in one atomic publication.
package principal

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"secext/internal/hamt"
	"secext/internal/lattice"
)

// Errors returned by the registry.
var (
	ErrExists       = errors.New("principal: already exists")
	ErrNotFound     = errors.New("principal: not found")
	ErrCycle        = errors.New("principal: group membership cycle")
	ErrBadToken     = errors.New("principal: invalid authentication token")
	ErrInvalidClass = errors.New("principal: class from wrong lattice")
	ErrBadName      = errors.New("principal: invalid name")
)

// Principal is an individual subject identity. Principals satisfy
// acl.Subject. A Principal is immutable; the same value is shared by
// every frozen registry version that contains it.
type Principal struct {
	name  string
	class lattice.Class
	reg   *Registry

	// id is the principal's dense, append-only ID: assigned in arrival
	// order at registration, never reused (there is no principal
	// removal). Freeze-time ACL compilation indexes its bitsets by this
	// ID, and the stability guarantee is what lets compiled summaries
	// that name only individuals survive registry transitions.
	id int
}

// SubjectName returns the principal's unique name.
func (p *Principal) SubjectName() string { return p.name }

// ID returns the principal's dense, append-only ID (see the field
// comment: arrival-ordered, stable across every registry version).
func (p *Principal) ID() int { return p.id }

// Class returns the principal's default security class.
func (p *Principal) Class() lattice.Class { return p.class }

// MemberOf reports whether the principal is a transitive member of the
// named group, as of the registry's current frozen version. Decisions
// that must be atomic against concurrent membership edits go through a
// pinned Frozen (the policy epoch) instead.
func (p *Principal) MemberOf(group string) bool {
	return p.reg.Freeze().IsMember(p.name, group)
}

// Groups returns the names of all groups the principal transitively
// belongs to, sorted.
func (p *Principal) Groups() []string {
	return p.reg.Freeze().GroupsOf(p.name)
}

func (p *Principal) String() string {
	return fmt.Sprintf("%s@%s", p.name, p.class)
}

// Registry is the authoritative store of principals, groups, and group
// membership. It is safe for concurrent use: reads are lock-free
// lookups on the current Frozen; mutations serialize on a writer-only
// mutex and publish a successor Frozen derived from the current one.
type Registry struct {
	// frozen is the atomically published current view.
	frozen  atomic.Pointer[Frozen]
	writeMu sync.Mutex

	lat    *lattice.Lattice
	secret []byte

	// onPublish, when set, receives every newly published Frozen,
	// makes it live in the receiver's published state, and returns the
	// version it landed in. The reference monitor wires it to the name
	// server's epoch publisher, so a membership edit lands in the policy
	// epoch — and kills every cached verdict — before the editor
	// regains control. Guarded by writeMu.
	onPublish func(*Frozen) uint64
}

// NewRegistry creates an empty registry whose principals carry classes
// from lat.
func NewRegistry(lat *lattice.Lattice) *Registry {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		// crypto/rand failure means the platform entropy source is
		// broken; tokens would be forgeable, so refuse to continue.
		panic("principal: cannot read entropy: " + err.Error())
	}
	r := &Registry{lat: lat, secret: secret}
	r.frozen.Store(&Frozen{
		reg:        r,
		version:    1,
		principals: hamt.New(func(p **Principal) string { return (*p).name }),
		groups:     make(map[string]*frozenGroup),
	})
	return r
}

// Lattice returns the lattice principals of this registry label against.
func (r *Registry) Lattice() *lattice.Lattice { return r.lat }

// Freeze returns the currently published registry view: one atomic
// load, no locks. The returned view is immutable and stays valid
// forever; pin it to evaluate several membership questions against one
// version of the registry.
func (r *Registry) Freeze() *Frozen { return r.frozen.Load() }

// Version returns the current registry version (1 when empty, +1 per
// mutation).
func (r *Registry) Version() uint64 { return r.frozen.Load().version }

// SetPublishHook installs a function that receives every newly
// published Frozen view, makes it live downstream, and returns the
// downstream version. The reference monitor wires it to the name
// server's epoch publisher; a nil hook clears it. The hook runs with
// the writer mutex held, so publications reach it in version order.
func (r *Registry) SetPublishHook(fn func(*Frozen) uint64) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.onPublish = fn
}

// Touch republishes the registry's current state as a new version — a
// typed no-op mutation. Experiments use it to drive epoch-invalidation
// storms without growing the registry.
func (r *Registry) Touch() {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	next := *r.frozen.Load()
	next.version++
	r.publishLocked(&next)
}

// publishLocked publishes next, which the caller derived from the
// current view, and returns the version of the downstream policy epoch
// carrying it (or the registry's own version when no hook is
// attached). Caller holds writeMu.
func (r *Registry) publishLocked(next *Frozen) uint64 {
	r.frozen.Store(next)
	if r.onPublish != nil {
		return r.onPublish(next)
	}
	return next.version
}

func validName(name string) error {
	if name == "" || name == "*" || strings.ContainsAny(name, "@ \t\n;/") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Principal looks up a principal by name.
func (r *Registry) Principal(name string) (*Principal, error) {
	return r.frozen.Load().Principal(name)
}

// Principals returns all principal names, sorted.
func (r *Registry) Principals() []string {
	return r.frozen.Load().Principals()
}

// Groups returns all group names, sorted.
func (r *Registry) Groups() []string {
	return r.frozen.Load().Groups()
}

// IsMember reports whether the named principal is a transitive member of
// the named group in the current frozen version. Unknown principals or
// groups are simply not members.
func (r *Registry) IsMember(principalName, groupName string) bool {
	return r.frozen.Load().IsMember(principalName, groupName)
}

// Members returns the direct members of a group: principal names and
// group names (prefixed "@"), sorted.
func (r *Registry) Members(groupName string) ([]string, error) {
	return r.frozen.Load().Members(groupName)
}

// IssueToken mints an authentication token for a registered principal.
// Tokens are HMAC-SHA256 over the principal name with a per-registry
// secret — a stand-in for whatever real authentication (certificates,
// signed code) a deployment would use.
func (r *Registry) IssueToken(name string) (string, error) {
	if _, err := r.Principal(name); err != nil {
		return "", err
	}
	mac := hmac.New(sha256.New, r.secret)
	mac.Write([]byte(name))
	sum := mac.Sum(nil)
	return name + "." + base64.RawURLEncoding.EncodeToString(sum), nil
}

// Authenticate verifies a token and returns the principal it names.
func (r *Registry) Authenticate(token string) (*Principal, error) {
	i := strings.LastIndexByte(token, '.')
	if i < 0 {
		return nil, ErrBadToken
	}
	name, sig := token[:i], token[i+1:]
	want, err := base64.RawURLEncoding.DecodeString(sig)
	if err != nil {
		return nil, ErrBadToken
	}
	mac := hmac.New(sha256.New, r.secret)
	mac.Write([]byte(name))
	if !hmac.Equal(mac.Sum(nil), want) {
		return nil, ErrBadToken
	}
	return r.Principal(name)
}

// TokenSecret returns a copy of the per-registry token-signing secret.
// Host-privileged: replication uses it so a replica registry can verify
// tokens the primary issued; nothing else should read it.
func (r *Registry) TokenSecret() []byte {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	return append([]byte(nil), r.secret...)
}

// SetTokenSecret replaces the token-signing secret, so primary-issued
// tokens authenticate against this registry. Host-privileged, bootstrap
// only: call before the registry serves concurrent Authenticate traffic
// (a replica installs the primary's secret while replaying the initial
// snapshot, before it accepts clients).
func (r *Registry) SetTokenSecret(secret []byte) error {
	if len(secret) < 16 {
		return fmt.Errorf("principal: token secret too short (%d bytes)", len(secret))
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.secret = append([]byte(nil), secret...)
	return nil
}
