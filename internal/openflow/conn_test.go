package openflow

import (
	"net"
	"testing"
	"time"
)

// queuedMsgs exceeds the 512-slot channel Conn once used, which dropped
// every Send past the slot limit while the peer was not reading.
const queuedMsgs = 4096

func TestConnSendNeverDrops(t *testing.T) {
	a, b := net.Pipe()
	c := NewConn(a)
	defer c.Close()
	// net.Pipe is unbuffered: nothing is read until the peer starts, so
	// every Send below queues behind the first blocked write.
	for i := 1; i <= queuedMsgs; i++ {
		c.Send(EncodeEcho(uint32(i), false, nil))
	}
	// A dropped message would leave Recv waiting forever; the deadline
	// turns that into a failure.
	if err := b.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	peer := NewConn(b)
	defer peer.Close()
	for want := uint32(1); want <= queuedMsgs; want++ {
		raw, err := peer.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", want, err)
		}
		h, err := DecodeHeader(raw)
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != TypeEchoRequest || h.XID != want {
			t.Fatalf("message %d: type %d xid %d", want, h.Type, h.XID)
		}
	}
}

func TestConnCloseDrainsQueue(t *testing.T) {
	a, _ := net.Pipe()
	c := NewConn(a)
	for i := 1; i <= queuedMsgs; i++ {
		c.Send(EncodeEcho(uint32(i), false, nil))
	}
	closed := make(chan struct{})
	go func() {
		_ = c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a full queue and a stalled peer")
	}
	if n := c.queued(); n != 0 {
		t.Fatalf("%d messages left queued after Close", n)
	}
	c.Send(EncodeHello(1)) // discarded, must not queue
	if n := c.queued(); n != 0 {
		t.Fatal("Send after Close queued a message")
	}
}

func (c *Conn) queued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
