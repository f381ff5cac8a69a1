package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxFrame bounds a single message to protect against corrupt length
// prefixes.
const maxFrame = 16 << 20

// AddressBook maps peer IDs to dialable TCP addresses. It is safe for
// concurrent use.
type AddressBook struct {
	mu    sync.RWMutex
	addrs map[string]string
}

// NewAddressBook creates an empty address book.
func NewAddressBook() *AddressBook {
	return &AddressBook{addrs: make(map[string]string)}
}

// Set records the address for a peer.
func (b *AddressBook) Set(id, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[id] = addr
}

// Lookup returns the address for a peer.
func (b *AddressBook) Lookup(id string) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	addr, ok := b.addrs[id]
	return addr, ok
}

// TCPEndpoint is an Endpoint backed by a TCP listener plus dial-on-demand
// outbound connections. Wire format per frame:
//
//	uint32 total length (big endian) | uint16 sender-ID length | sender ID | payload
//
// Connections are one-way: frames flow from the dialer to the acceptor and
// nothing comes back. A dialed connection is still read, by a watcher
// goroutine whose only purpose is to learn that the peer has gone (see
// watch) — without it a write after the peer's FIN is accepted by the kernel
// and Send would report success for a frame nobody will ever read.
type TCPEndpoint struct {
	id       string
	book     *AddressBook
	listener net.Listener

	mu       sync.Mutex
	conns    map[string]*tcpConn
	accepted map[net.Conn]bool
	closed   bool
	handler  Handler
	wg       sync.WaitGroup
}

type tcpConn struct {
	mu   sync.Mutex // serializes writes; guards dead
	c    net.Conn
	dead bool // the watcher saw the peer hang up (or the conn fail)
}

var _ Endpoint = (*TCPEndpoint)(nil)

// ListenTCP creates an endpoint listening on addr (use ":0" for an ephemeral
// port) and registers the bound address in the book.
func ListenTCP(id, addr string, book *AddressBook) (*TCPEndpoint, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{id: id, book: book, listener: l, conns: make(map[string]*tcpConn), accepted: make(map[net.Conn]bool)}
	book.Set(id, l.Addr().String())
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// ID returns the endpoint identifier.
func (e *TCPEndpoint) ID() string { return e.id }

// Addr returns the bound listen address.
func (e *TCPEndpoint) Addr() string { return e.listener.Addr().String() }

// SetHandler installs the inbound handler.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accepted[c] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.readLoop(c)
		}()
	}
}

func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.accepted, c)
		e.mu.Unlock()
	}()
	for {
		from, payload, err := readFrame(c)
		if err != nil {
			return
		}
		e.mu.Lock()
		h := e.handler
		e.mu.Unlock()
		if h != nil {
			h(from, payload)
		}
	}
}

func readFrame(r io.Reader) (from string, payload []byte, err error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return "", nil, err
	}
	total := binary.BigEndian.Uint32(head[:])
	if total > maxFrame || total < 2 {
		return "", nil, fmt.Errorf("transport: bad frame length %d", total)
	}
	buf := make([]byte, total)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", nil, err
	}
	idLen := binary.BigEndian.Uint16(buf[:2])
	if int(idLen)+2 > len(buf) {
		return "", nil, errors.New("transport: bad frame id length")
	}
	return string(buf[2 : 2+idLen]), buf[2+idLen:], nil
}

func writeFrame(w io.Writer, from string, payload []byte) error {
	total := 2 + len(from) + len(payload)
	if total > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", total)
	}
	buf := make([]byte, 4+total)
	binary.BigEndian.PutUint32(buf[:4], uint32(total))
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(from)))
	copy(buf[6:], from)
	copy(buf[6+len(from):], payload)
	_, err := w.Write(buf)
	return err
}

// watch reads a dialed connection until it ends. The acceptor never writes,
// so the read returns only when the peer has closed (EOF), the connection
// has failed, or this endpoint closed it; in every case tc is finished. It
// is then evicted, so the next Send dials afresh, and marked dead, so a
// Send that already holds tc reports an error instead of writing into a
// socket whose far end is gone.
func (e *TCPEndpoint) watch(to string, tc *tcpConn) {
	defer e.wg.Done()
	var b [1]byte
	for {
		if _, err := tc.c.Read(b[:]); err != nil {
			break
		}
	}
	e.evict(to, tc)
	tc.mu.Lock()
	tc.dead = true
	tc.mu.Unlock()
}

// evict drops a finished connection from the cache, so the next Send to the
// peer redials, and closes it.
func (e *TCPEndpoint) evict(to string, tc *tcpConn) {
	e.mu.Lock()
	if e.conns[to] == tc {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	tc.c.Close()
}

// Send transmits data to the named peer, dialing a connection if none is
// cached. A nil return means the frame was written to a connection the peer
// had not been seen to close; a peer that closed earlier yields a fresh dial
// or an error, never a silent success.
func (e *TCPEndpoint) Send(to string, data []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	tc, ok := e.conns[to]
	e.mu.Unlock()
	if !ok {
		addr, found := e.book.Lookup(to)
		if !found {
			return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return fmt.Errorf("dial %s (%s): %w", to, addr, err)
		}
		e.mu.Lock()
		if e.closed {
			// Close ran while we were dialing; it has already drained
			// e.conns, so caching c now would leak the socket forever.
			e.mu.Unlock()
			c.Close()
			return ErrClosed
		}
		if existing, race := e.conns[to]; race {
			// Another goroutine connected first; use its connection.
			e.mu.Unlock()
			c.Close()
			tc = existing
		} else {
			tc = &tcpConn{c: c}
			e.conns[to] = tc
			e.wg.Add(1) // under e.mu with closed false, so Close waits for it
			e.mu.Unlock()
			go e.watch(to, tc)
		}
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.dead {
		// The watcher got here between our lookup and our lock; it has
		// already evicted tc, so the caller's next Send redials.
		return fmt.Errorf("send to %s: %w", to, net.ErrClosed)
	}
	if err := writeFrame(tc.c, e.id, data); err != nil {
		e.evict(to, tc)
		return fmt.Errorf("send to %s: %w", to, err)
	}
	return nil
}

// Close shuts the listener and all connections, then waits for reader
// goroutines to exit.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = make(map[string]*tcpConn)
	inbound := make([]net.Conn, 0, len(e.accepted))
	for c := range e.accepted {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()
	err := e.listener.Close()
	for _, tc := range conns {
		tc.c.Close()
	}
	// Accepted (inbound) connections must be closed too, or their read
	// loops would wait forever on peers that never hang up.
	for _, c := range inbound {
		c.Close()
	}
	e.wg.Wait()
	return err
}
