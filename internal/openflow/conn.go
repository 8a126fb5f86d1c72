package openflow

import (
	"fmt"
	"io"
	"sync"
)

// Conn frames OpenFlow messages over a duplex byte stream. Writes are
// queued to a dedicated writer goroutine so protocol handlers never block
// on the transport (unbuffered in-memory pipes would otherwise deadlock
// two endpoints writing simultaneously). The queue is an unbounded FIFO:
// a controller may burst one FLOW_MOD per destination host at a switch
// that is not reading yet, and every one of them must arrive.
type Conn struct {
	rw io.ReadWriteCloser

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	closed bool
	done   chan struct{}
}

// NewConn wraps a duplex stream.
func NewConn(rw io.ReadWriteCloser) *Conn {
	c := &Conn{
		rw:   rw,
		done: make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.writeLoop()
	return c
}

// writeLoop writes queued messages in FIFO order until Close, swapping
// the queue for its spare batch so steady-state sends do not allocate.
func (c *Conn) writeLoop() {
	defer close(c.done)
	var batch [][]byte
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		batch, c.queue = c.queue, batch[:0]
		c.mu.Unlock()
		for i, b := range batch {
			// A write error means the transport broke; the reader
			// observes it, and the queue keeps draining so Close returns.
			_, _ = c.rw.Write(b)
			batch[i] = nil
		}
	}
}

// Send queues one already-encoded message. It never blocks and never
// drops: messages are written in Send order by the writer goroutine.
// Messages sent after Close are discarded.
func (c *Conn) Send(msg []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.queue = append(c.queue, msg)
	c.cond.Signal()
}

// Recv blocks until one complete message arrives and returns its raw
// bytes (header included).
func (c *Conn) Recv() ([]byte, error) {
	hdr := make([]byte, headerLen)
	if err := readFull(c.rw, hdr); err != nil {
		return nil, err
	}
	h, err := DecodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	msg := make([]byte, h.Length)
	copy(msg, hdr)
	if err := readFull(c.rw, msg[headerLen:]); err != nil {
		return nil, err
	}
	return msg, nil
}

// Close shuts the connection down and waits for the writer goroutine to
// drain the queue and exit; messages the transport has not taken by then
// are discarded. Safe to call multiple times.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Signal()
	c.mu.Unlock()
	err := c.rw.Close()
	<-c.done
	return err
}

func readFull(r io.Reader, b []byte) error {
	for off := 0; off < len(b); {
		n, err := r.Read(b[off:])
		off += n
		if err != nil {
			if off == len(b) {
				return nil
			}
			return err
		}
		if n == 0 {
			return fmt.Errorf("openflow: zero-length read")
		}
	}
	return nil
}

// xidGen hands out transaction IDs.
type xidGen struct {
	mu  sync.Mutex
	nxt uint32
}

func (g *xidGen) next() uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nxt++
	return g.nxt
}
