package replica

import (
	"io"
	"runtime"
	"testing"
	"time"

	"secext/internal/core"
)

// TestSnapshotEncodingReleased: the publisher keeps a snapshot encoding
// only while its epoch version is current. Once the subscriber has
// streamed it and the next epoch is published, nothing holds the
// frames: a finalizer on the first frame runs.
func TestSnapshotEncodingReleased(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Levels: []string{"low", "high"}})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPublisher(sys)
	defer p.Close()
	released := make(chan struct{})
	func() {
		peer, snap, err := p.Subscribe("a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		first, _ := snap.enc.frame(0)
		runtime.SetFinalizer(&first[0], func(*byte) { close(released) })
		p.Remove(peer)
	}()
	runtime.GC()
	select {
	case <-released:
		t.Fatal("the encoding of the current epoch was released")
	case <-time.After(50 * time.Millisecond):
	}
	sys.Names().PublishStack(sys.Names().Current().Stack())
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the snapshot frames are still reachable after the next publication")
		}
	}
}
