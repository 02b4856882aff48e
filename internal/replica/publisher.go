package replica

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"secext/internal/core"
	"secext/internal/names"
	"secext/internal/telemetry"
)

// Msg is one stream message queued for a peer: a delta's frames, ready
// to write, and the primary epoch version it carries the peer to.
type Msg struct {
	Version uint64
	Payload []byte
}

// Peer is one subscribed replica as the primary sees it. The remote
// layer owns the connection; the publisher owns the delta queue and
// the acknowledgment state.
type Peer struct {
	name string
	// base is the primary epoch version of the snapshot the peer
	// bootstrapped from; deltas at or below it are filtered (the
	// snapshot already contains them).
	base uint64
	// ch carries encoded deltas to the connection's writer goroutine.
	// Only the publisher's fan-out goroutine sends and closes — on drop
	// and when it exits — so no send can race a close; a close means the
	// peer was dropped (overflow or publisher shutdown).
	ch chan Msg

	acked         atomic.Uint64
	deltas        atomic.Uint64
	deltaBytes    atomic.Uint64
	snapshotBytes atomic.Uint64
}

// Name returns the peer's display name (unique per publisher).
func (p *Peer) Name() string { return p.name }

// Ch returns the peer's delta stream; the connection's writer
// goroutine ranges over it until it closes.
func (p *Peer) Ch() <-chan Msg { return p.ch }

// Acked returns the last primary epoch version the peer acknowledged.
func (p *Peer) Acked() uint64 { return p.acked.Load() }

// transition is one queued epoch publication awaiting diff + fan-out.
type transition struct {
	prev, next *names.Epoch
}

// peerChCap bounds each peer's delta queue. A peer that falls this far
// behind the primary's publication rate is dropped — it reconnects and
// re-bootstraps from a fresh snapshot (or fails closed); an unbounded
// queue would instead let one slow replica consume the primary's
// memory.
const peerChCap = 1024

// Publisher is the primary-side replication engine: it observes every
// epoch publication through the name server's transition hook, derives
// the wire delta on its own goroutine, and fans the encoded message
// out to every subscribed peer. It also implements the revocation
// Barrier and the telemetry snapshot.
type Publisher struct {
	sys *core.System

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []transition
	peers  map[string]*Peer
	seq    int
	closed bool

	// enc is the snapshot encoding of the last epoch version a peer
	// subscribed at, while that version is current: subscribers at that
	// version share it, and the fan-out lets it go at the next
	// publication (a stream still sending it keeps its own reference).
	enc *snapEncoding

	// done is closed when the fan-out goroutine has exited, after it
	// closed every remaining peer's stream.
	done chan struct{}

	snapshots       atomic.Uint64
	snapshotEncodes atomic.Uint64
	deltas          atomic.Uint64
	snapshotBytes   atomic.Uint64
	deltaBytes      atomic.Uint64
	barrierTimeouts atomic.Uint64
	barrierWait     telemetry.Histogram
}

// NewPublisher wires a publisher into the system's name server: from
// here on every epoch publication is queued for replication. The hook
// only appends to the queue (it runs under the name server's writer
// mutex); diffing and encoding happen on the publisher's goroutine.
func NewPublisher(sys *core.System) *Publisher {
	p := &Publisher{sys: sys, peers: make(map[string]*Peer), done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	sys.Names().SetTransitionHook(func(prev, next *names.Epoch) {
		p.mu.Lock()
		if !p.closed {
			p.queue = append(p.queue, transition{prev, next})
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	})
	go p.run()
	return p
}

// Close detaches the publisher from the name server and drops every
// peer: it stops the fan-out goroutine, which closes each peer's stream
// on its way out, and returns once it has. Queued transitions are
// discarded.
func (p *Publisher) Close() {
	p.sys.Names().SetTransitionHook(nil)
	p.mu.Lock()
	p.closed = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.done
}

// Subscribe registers a new peer and returns it with the snapshot the
// connection must send first. The snapshot's epoch is pinned under the
// publisher's mutex, so no published delta can fall between the
// snapshot version and the peer's stream: every transition enqueued
// after this point either is contained in the snapshot (version <=
// base, filtered) or will be delivered. Subscribers at one epoch
// version share one encoding of it.
func (p *Publisher) Subscribe(label string) (*Peer, *Snapshot, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, nil, fmt.Errorf("replica: publisher closed")
	}
	ep := p.sys.Names().Current()
	p.seq++
	name := fmt.Sprintf("%s#%d", label, p.seq)
	peer := &Peer{name: name, base: ep.Version(), ch: make(chan Msg, peerChCap)}
	peer.acked.Store(ep.Version())
	p.peers[name] = peer
	if p.enc == nil || p.enc.version != ep.Version() {
		p.enc = newSnapEncoding(ep)
		p.snapshotEncodes.Add(1)
	}
	enc := p.enc
	p.mu.Unlock()
	p.snapshots.Add(1)
	return peer, &Snapshot{pub: p, peer: peer, enc: enc, secret: p.sys.Registry().TokenSecret()}, nil
}

// Snapshot is one subscriber's bootstrap: the token secret, then the
// shared frames of the epoch it subscribed at.
type Snapshot struct {
	pub    *Publisher
	peer   *Peer
	enc    *snapEncoding
	secret []byte
}

// WriteTo writes the SNAP-SECRET line and then each frame as the shared
// encoding produces it, and adds the bytes written to the publisher's
// and the peer's snapshot bytes. The secret stays out of the shared
// frames. An encoding error ends the write before SNAP-END.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	n, err := fmt.Fprintf(w, "SNAP-SECRET %s\n", EncodeSecret(s.secret))
	total := int64(n)
	for i := 0; err == nil; i++ {
		var f []byte
		if f, err = s.enc.frame(i); f == nil {
			break
		}
		n, err = w.Write(f)
		total += int64(n)
	}
	s.pub.snapshotBytes.Add(uint64(total))
	s.peer.snapshotBytes.Add(uint64(total))
	return total, err
}

// snapEncoding is the snapshot frames of one epoch version, encoded
// once on its own goroutine and shared by every subscriber at that
// version. Frames are appended as the encoder emits them, so the first
// subscriber sends while the rest is still being encoded.
type snapEncoding struct {
	version uint64
	mu      sync.Mutex
	grown   sync.Cond // broadcast on each frame and at the end
	frames  [][]byte
	done    bool
	err     error
}

func newSnapEncoding(ep *names.Epoch) *snapEncoding {
	e := &snapEncoding{version: ep.Version()}
	e.grown.L = &e.mu
	go e.run(ep)
	return e
}

func (e *snapEncoding) run(ep *names.Epoch) {
	wire, err := ep.WireSnapshot()
	if err == nil {
		err = names.EncodeEpoch(wire, func(f []byte) error {
			e.mu.Lock()
			e.frames = append(e.frames, f)
			e.mu.Unlock()
			e.grown.Broadcast()
			return nil
		})
	}
	e.mu.Lock()
	e.done, e.err = true, err
	e.mu.Unlock()
	e.grown.Broadcast()
}

// frame returns frame i once it is encoded, or nil and the encoding's
// error once the encoding ended before it.
func (e *snapEncoding) frame(i int) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i >= len(e.frames) && !e.done {
		e.grown.Wait()
	}
	if i < len(e.frames) {
		return e.frames[i], nil
	}
	return nil, e.err
}

// Ack records that the peer applied every primary epoch up to v, and
// wakes any barrier waiting on it. Acks are monotonic; a stale ack is
// ignored.
func (p *Publisher) Ack(peer *Peer, v uint64) {
	for {
		cur := peer.acked.Load()
		if v <= cur {
			return
		}
		if peer.acked.CompareAndSwap(cur, v) {
			break
		}
	}
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Remove unregisters a peer after its connection ended. A removed peer
// no longer gates barriers — its replica is failing closed on its own
// staleness deadline, which is the disconnect half of the consistency
// contract.
func (p *Publisher) Remove(peer *Peer) {
	p.mu.Lock()
	if cur, ok := p.peers[peer.name]; ok && cur == peer {
		delete(p.peers, peer.name)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// drop removes a peer AND closes its stream: used by the fan-out when
// a peer's queue overflows. The connection's writer goroutine sees the
// close and hangs up, forcing the replica to re-bootstrap.
func (p *Publisher) drop(peer *Peer) {
	p.mu.Lock()
	cur, ok := p.peers[peer.name]
	if ok && cur == peer {
		delete(p.peers, peer.name)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if ok && cur == peer {
		close(peer.ch)
	}
}

// run is the fan-out goroutine: pop transitions in publication order,
// derive and encode the delta once, deliver to every peer that needs
// it. On Close it closes every remaining peer's stream and exits.
func (p *Publisher) run() {
	defer close(p.done)
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			peers := p.peers
			p.peers = make(map[string]*Peer)
			p.mu.Unlock()
			for _, peer := range peers {
				close(peer.ch)
			}
			return
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		if p.enc != nil && t.next.Version() > p.enc.version {
			p.enc = nil // no later subscriber starts at its version
		}
		peers := make([]*Peer, 0, len(p.peers))
		for _, peer := range p.peers {
			peers = append(peers, peer)
		}
		p.mu.Unlock()

		needed := false
		for _, peer := range peers {
			if t.next.Version() > peer.base {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		// The delta is diffed and framed once for every peer. A delta
		// that cannot be derived means the epoch pair does not obey the
		// append-only shard contract: nothing sound can be streamed, so
		// the peers that need it are dropped, and their replicas fail
		// closed until they bootstrap from a snapshot.
		var body []byte
		d, err := names.DiffEpochs(t.prev, t.next)
		if err == nil {
			err = names.EncodeEpoch(d, func(f []byte) error {
				body = append(body, f...)
				return nil
			})
		}
		if err != nil {
			for _, peer := range peers {
				if t.next.Version() > peer.base {
					p.drop(peer)
				}
			}
			continue
		}
		p.deltas.Add(1)
		p.deltaBytes.Add(uint64(len(body)))
		msg := Msg{Version: d.Version, Payload: body}
		for _, peer := range peers {
			if d.Version <= peer.base {
				continue
			}
			select {
			case peer.ch <- msg:
				peer.deltas.Add(1)
				peer.deltaBytes.Add(uint64(len(body)))
			default:
				p.drop(peer)
			}
		}
	}
}

// Barrier blocks until every currently connected peer has acknowledged
// a primary epoch >= v, or the timeout passes. Peers that disconnect
// while the barrier waits stop gating it (their replicas fail closed
// on their own deadline). A satisfied barrier is the fleet-wide
// revocation guarantee: no connected replica will grant under any
// epoch older than v after Barrier returns nil.
func (p *Publisher) Barrier(v uint64, timeout time.Duration) error {
	start := time.Now()
	deadline := start.Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return fmt.Errorf("replica: publisher closed during barrier")
		}
		lagging := false
		for _, peer := range p.peers {
			if peer.acked.Load() < v {
				lagging = true
				break
			}
		}
		if !lagging {
			p.barrierWait.Observe(time.Since(start))
			return nil
		}
		if !time.Now().Before(deadline) {
			p.barrierTimeouts.Add(1)
			return fmt.Errorf("replica: barrier for epoch v%d timed out after %s", v, timeout)
		}
		p.cond.Wait()
	}
}

// Peers returns the currently connected peers.
func (p *Publisher) Peers() []*Peer {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Peer, 0, len(p.peers))
	for _, peer := range p.peers {
		out = append(out, peer)
	}
	return out
}

// Stats snapshots the publisher for telemetry: per-peer lag against
// the current primary version, transfer volume by message kind, and
// the barrier-wait distribution.
func (p *Publisher) Stats() telemetry.ReplicationStats {
	cur := p.sys.Names().Version()
	st := telemetry.ReplicationStats{
		PrimaryVersion:  cur,
		Snapshots:       p.snapshots.Load(),
		SnapshotEncodes: p.snapshotEncodes.Load(),
		Deltas:          p.deltas.Load(),
		SnapshotBytes:   p.snapshotBytes.Load(),
		DeltaBytes:      p.deltaBytes.Load(),
		BarrierTimeouts: p.barrierTimeouts.Load(),
		BarrierWait:     p.barrierWait.Snapshot(),
	}
	for _, peer := range p.Peers() {
		acked := peer.acked.Load()
		lag := uint64(0)
		if cur > acked {
			lag = cur - acked
		}
		st.Peers = append(st.Peers, telemetry.ReplicaPeerStat{
			Name:          peer.name,
			Acked:         acked,
			Lag:           lag,
			SnapshotBytes: peer.snapshotBytes.Load(),
			DeltaBytes:    peer.deltaBytes.Load(),
			Deltas:        peer.deltas.Load(),
		})
	}
	return st
}
