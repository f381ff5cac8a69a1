package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// maxFrame bounds a single message to protect against corrupt length
// prefixes.
const maxFrame = 16 << 20

// frameBufCap is the largest frame buffer a connection's reader keeps
// between frames; a larger frame is read into a one-off buffer that is
// dropped once its handler returns.
const frameBufCap = 64 << 10

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
// Connections are duplex, and every one, dialed or accepted, has one reader
// (serve). An accepted connection becomes the route to the peer named in the
// first frame it delivers, unless this endpoint has dialed a live connection
// to that peer itself; so a peer that dials in is answered on its own socket
// and needs no entry in the address book, and when two peers dial each other
// at once each direction keeps to one connection. When a connection ends, its
// reader retires it: the next Send to the peer redials (or, with no address,
// fails) instead of writing into a socket whose far end is gone.
//
// Each connection reads through one bufio.Reader into one frame buffer that
// is reused for every frame (kept up to 64 KiB; a larger frame gets a one-off
// buffer), so the data a Handler receives is valid only until it returns.
type TCPEndpoint struct {
	id       string
	book     *AddressBook
	listener net.Listener

	mu      sync.Mutex
	conns   map[string]*tcpConn // the route to each peer
	open    map[*tcpConn]bool   // every connection not yet evicted
	closed  bool
	handler Handler
	wg      sync.WaitGroup
}

type tcpConn struct {
	c      net.Conn
	dialed bool // this endpoint dialed c; fixed before tc is shared

	mu   sync.Mutex // serializes writes; guards dead
	dead bool       // the reader saw the conn end
}

var _ Endpoint = (*TCPEndpoint)(nil)

// ListenTCP creates an endpoint listening on addr (use ":0" for an ephemeral
// port) and registers the bound address in the book. The id rides in every
// frame behind a 16-bit length, so it is at most 65 535 bytes.
func ListenTCP(id, addr string, book *AddressBook) (*TCPEndpoint, error) {
	if len(id) > math.MaxUint16 {
		return nil, fmt.Errorf("transport: id of %d bytes does not fit a frame (at most %d)", len(id), math.MaxUint16)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{id: id, book: book, listener: l, conns: make(map[string]*tcpConn), open: make(map[*tcpConn]bool)}
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
		e.start(&tcpConn{c: c}, "")
		e.mu.Unlock()
	}
}

// start records tc as open and runs its reader. Callers hold e.mu and have
// seen closed false, so Close will close tc and wait for the reader.
func (e *TCPEndpoint) start(tc *tcpConn, peer string) {
	e.open[tc] = true
	e.wg.Add(1)
	go e.serve(tc, peer)
}

// serve is tc's one reader; peer is whom tc was dialed to ("" if accepted).
// A frame's sender takes tc as its route if it has none, or if this is tc's
// first frame from it and the route it replaces was not dialed here. When the
// read fails (EOF, a failed conn, or Close) tc is evicted, and marked dead so
// a Send already holding it errors instead of writing into a dead socket.
func (e *TCPEndpoint) serve(tc *tcpConn, peer string) {
	defer e.wg.Done()
	br := bufio.NewReader(tc.c)
	var fr frameReader
	for {
		from, payload, err := fr.read(br)
		if err != nil {
			break
		}
		e.mu.Lock()
		if cur := e.conns[from]; cur == nil || from != peer && !cur.dialed {
			e.conns[from] = tc
		}
		peer = from
		h := e.handler
		e.mu.Unlock()
		if h != nil {
			h(from, payload)
		}
	}
	e.evict(peer, tc)
	tc.mu.Lock()
	tc.dead = true
	tc.mu.Unlock()
}

// frameReader decodes the frames of one connection. Its buffer and sender
// id carry over from frame to frame: the payload read returns aliases buf
// and is overwritten by the next read, and from is re-allocated only when
// the sender-id bytes change.
type frameReader struct {
	head [4]byte
	buf  []byte
	from string
}

func (fr *frameReader) read(r io.Reader) (from string, payload []byte, err error) {
	if _, err := io.ReadFull(r, fr.head[:]); err != nil {
		return "", nil, err
	}
	total := binary.BigEndian.Uint32(fr.head[:])
	if total > maxFrame || total < 2 {
		return "", nil, fmt.Errorf("transport: bad frame length %d", total)
	}
	buf := fr.buf
	switch {
	case int(total) <= cap(buf):
		buf = buf[:total]
	case total > frameBufCap:
		buf = make([]byte, total) // one-off: not kept past this frame
	default:
		buf = make([]byte, total, min(max(int(total), 2*cap(buf)), frameBufCap))
		fr.buf = buf
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", nil, err
	}
	end := 2 + int(binary.BigEndian.Uint16(buf[:2])) // an int: 2+0xFFFF wraps a uint16
	if end > len(buf) {
		return "", nil, errors.New("transport: bad frame id length")
	}
	if id := buf[2:end]; string(id) != fr.from {
		fr.from = string(id)
	}
	return fr.from, buf[end:], nil
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

// evict drops a finished connection from the open set and, if it is the
// route to peer, from the routes, so the next Send finds another; then it
// closes it, which ends its reader.
func (e *TCPEndpoint) evict(peer string, tc *tcpConn) {
	e.mu.Lock()
	delete(e.open, tc)
	if e.conns[peer] == tc {
		delete(e.conns, peer)
	}
	e.mu.Unlock()
	tc.c.Close()
}

// Send transmits data to the named peer over its route: the connection this
// endpoint dialed to it, or the one it dialed in on, or else a fresh dial to
// its address in the book. A nil return means the frame was written to a
// connection the peer had not been seen to close; a peer that closed earlier
// yields a fresh route or an error, never a silent success.
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
			// e.open, so keeping c now would leak the socket forever.
			e.mu.Unlock()
			c.Close()
			return ErrClosed
		}
		if existing, race := e.conns[to]; race {
			// A route appeared while we dialed (another Send's dial, or the
			// peer dialing in); frames already sent may be on it, so use it.
			e.mu.Unlock()
			c.Close()
			tc = existing
		} else {
			tc = &tcpConn{c: c, dialed: true}
			e.conns[to] = tc
			e.start(tc, to)
			e.mu.Unlock()
		}
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.dead {
		// Retired between our lookup and our lock; evict it under to as
		// well (its reader did so only under the last sender it read).
		e.evict(to, tc)
		return fmt.Errorf("send to %s: %w", to, net.ErrClosed)
	}
	if err := writeFrame(tc.c, e.id, data); err != nil {
		e.evict(to, tc)
		return fmt.Errorf("send to %s: %w", to, err)
	}
	return nil
}

// Close shuts the listener and all connections, then waits for their
// readers to exit.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	open := make([]*tcpConn, 0, len(e.open))
	for tc := range e.open {
		open = append(open, tc)
	}
	e.conns = make(map[string]*tcpConn)
	e.mu.Unlock()
	err := e.listener.Close()
	for _, tc := range open {
		tc.c.Close()
	}
	e.wg.Wait()
	return err
}
