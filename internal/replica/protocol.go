// Package replica distributes the reference monitor: a primary
// secextd streams its policy epochs — the immutable, versioned,
// atomically published units PR 5 introduced — to replica mediators
// that serve access checks locally against their own epoch pointer.
//
// The paper's single central name server (§2.3) is economy of
// mechanism but also a scalability ceiling; epochs make distribution
// almost free of new trust: a replica applies each transition
// atomically into a local epoch, rebuilds the compiled read side at
// apply time, and answers checks with the same lock-free pinned-epoch
// discipline as the primary. The consistency contract is deliberate
// and asymmetric:
//
//   - Grants are bounded-stale: a replica may briefly honor policy the
//     primary has already tightened, bounded by the staleness deadline.
//   - Revocations can be made fleet-wide synchronous: the primary's
//     Publisher exposes a revocation Barrier that blocks until every
//     connected replica has acknowledged an epoch >= the revoking
//     version, so "no stale grant at/after revocation" holds across
//     the fleet, not just one process.
//   - A replica that loses its primary fails CLOSED: when nothing has
//     been heard for the staleness deadline it publishes an epoch whose
//     guard stack is a single unconditional deny, and restores the
//     replicated stack only when the stream resumes.
//
// There is no consensus and no failover: a single primary owns all
// writes; replicas are read-only mediators.
//
// This package speaks the wire format (internal/names' epoch codec
// carried by the line protocol: a subscriber receives SNAP-SECRET and
// the snapshot's frames, then each delta as the same kind of frames,
// and PING lines, and answers ACK) from both ends but never imports
// internal/remote — remote imports this package to serve the primary
// side.
package replica

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"fmt"
	"io"

	"secext/internal/monitor"
	"secext/internal/monitor/dacguard"
	"secext/internal/monitor/macguard"
	"secext/internal/names"
)

// Protocol versions. Version 1 is the pre-replication line protocol;
// version 2 added HELLO/SUBSCRIBE/DELTA/ACK/BARRIER/REPLICAS; version 4
// bootstrapped a subscriber from the streamed, table-shaped snapshot;
// version 5 sent every delta in that same form; version 6 drops the
// header's traversal flag, since per-level visibility checks always
// run (a version-5 replica would read its absence as "off"). After
// "OK <peer>"
// comes one SNAP-SECRET line with the token secret, then the frames of
// names.EncodeEpoch for the snapshot (the message from version 0), each
// one line of at most names.MaxFrame bytes; after that, each delta
// travels as the frames of the message from the version before. A
// server negotiates min(client, ProtoVersion) and rejects clients below
// MinProto with a clean error instead of a parse failure; SUBSCRIBE
// needs SubscribeProto, so a subscriber from before version 6 gets a
// clean ERR rather than a stream it would misread.
const (
	ProtoVersion   = 6
	MinProto       = 1
	SubscribeProto = 6
)

// CompressSnapshot gzips a body and base64-encodes it. Kept for bench/
// only, which still prices the JSON form of a snapshot this way; the
// protocol does not compress.
func CompressSnapshot(body []byte) (string, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(body); err != nil {
		return "", fmt.Errorf("replica: compressing snapshot: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("replica: compressing snapshot: %w", err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// DecompressSnapshot undoes CompressSnapshot. Kept for bench/ only.
func DecompressSnapshot(s string) ([]byte, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("replica: decoding snapshot: %w", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("replica: decompressing snapshot: %w", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("replica: decompressing snapshot: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("replica: decompressing snapshot: %w", err)
	}
	return body, nil
}

// SnapshotEnvelope is a snapshot and the primary's token secret as one
// JSON value. Kept for bench/ only, which prices that JSON form; the
// protocol sends the secret in its own SNAP-SECRET line and the
// snapshot as frames.
type SnapshotEnvelope struct {
	Epoch  *names.EpochWire `json:"epoch"`
	Secret string           `json:"secret"`
}

// EncodeSecret renders a token secret for the SNAP-SECRET line.
func EncodeSecret(secret []byte) string {
	return base64.StdEncoding.EncodeToString(secret)
}

// DecodeSecret parses a SNAP-SECRET payload.
func DecodeSecret(s string) ([]byte, error) {
	return base64.StdEncoding.DecodeString(s)
}

// staleGuard is the fail-closed stack: one pure guard that denies
// everything. A replica whose staleness deadline passed publishes an
// epoch carrying only this guard — the epoch transition kills every
// cached verdict, and pure denial is safely cacheable.
type staleGuard struct{}

func (staleGuard) Name() string { return "stale-replica" }

func (staleGuard) Check(monitor.Request) monitor.Verdict {
	return monitor.Deny("stale-replica", "replica: staleness deadline exceeded, failing closed")
}

// StaleStack returns the fail-closed guard stack.
func StaleStack() *monitor.Stack {
	return monitor.NewPipeline(staleGuard{}).Current()
}

// BuildStack rebuilds a guard stack from its replicated descriptor
// (ordered guard names). Only guards with registered pure constructors
// can be rebuilt; a stack naming any other guard fails the
// subscription — the replica then refuses to serve rather than run a
// weaker stack than the primary. The rebuilt default [dac, mac] stack
// is type-identical to the primary's, so the compiled-epoch fast path
// stays licensed on replicas.
func BuildStack(guardNames []string) (*monitor.Stack, error) {
	guards := make([]monitor.Guard, 0, len(guardNames))
	for _, name := range guardNames {
		switch name {
		case "dac":
			guards = append(guards, dacguard.New())
		case "mac":
			guards = append(guards, macguard.New())
		case "stale-replica":
			guards = append(guards, staleGuard{})
		default:
			return nil, fmt.Errorf("replica: cannot rebuild guard %q: no replicable constructor", name)
		}
	}
	return monitor.NewPipeline(guards...).Current(), nil
}
