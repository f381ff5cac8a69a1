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
	"time"
)

// maxFrame bounds a single message to protect against corrupt length
// prefixes.
const maxFrame = 16 << 20

// FrameBufCap is the largest frame buffer a connection keeps between frames,
// on either side: a larger frame is read, or built for writing, in a one-off
// buffer that is dropped once the frame is done with. fabric's free list of
// encoded frames keeps frames up to the same bound, so a frame the
// transport keeps a buffer for is one the codec keeps its storage for.
const FrameBufCap = 64 << 10

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

// TCPEndpoint is an Endpoint made of dial-on-demand outbound connections
// plus, when it listens, the connections it accepts. Wire format per frame:
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
// Sends to a peer build each frame in that connection's write buffer, bounded
// the same way, and write it with one Write.
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

	mu   sync.Mutex // serializes writes; guards dead and wbuf
	dead bool       // the reader saw the conn end
	wbuf []byte     // the frame being written, kept between sends (see frameBuf)
}

var _ Endpoint = (*TCPEndpoint)(nil)

// DialTCP creates an endpoint that only dials: it reaches the peers in the
// book, and a peer answers it on the connection it dialed, but it opens no
// listener, so nothing can connect to it. The id rides in every frame behind
// a 16-bit length, so it is at most 65 535 bytes.
func DialTCP(id string, book *AddressBook) (*TCPEndpoint, error) {
	if len(id) > math.MaxUint16 {
		return nil, fmt.Errorf("transport: id of %d bytes does not fit a frame (at most %d)", len(id), math.MaxUint16)
	}
	return &TCPEndpoint{id: id, book: book, conns: make(map[string]*tcpConn), open: make(map[*tcpConn]bool)}, nil
}

// ListenTCP is DialTCP plus a listener on addr (use ":0" for an ephemeral
// port), whose bound address it registers in the book.
func ListenTCP(id, addr string, book *AddressBook) (*TCPEndpoint, error) {
	ep, err := DialTCP(id, book)
	if err != nil {
		return nil, err
	}
	if ep.listener, err = net.Listen("tcp", addr); err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	book.Set(id, ep.Addr())
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// ID returns the endpoint identifier.
func (e *TCPEndpoint) ID() string { return e.id }

// Addr returns the bound listen address, or "" for an endpoint that only
// dials.
func (e *TCPEndpoint) Addr() string {
	if e.listener == nil {
		return ""
	}
	return e.listener.Addr().String()
}

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
	buf := frameBuf(&fr.buf, int(total))
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

// frameBuf returns a buffer of length n for one frame: *kept resliced when it
// is large enough, else a new one, which replaces *kept unless n is past
// FrameBufCap (then it is a one-off, dropped with the frame).
func frameBuf(kept *[]byte, n int) []byte {
	switch {
	case n <= cap(*kept):
		return (*kept)[:n]
	case n > FrameBufCap:
		return make([]byte, n)
	}
	*kept = make([]byte, n, min(max(n, 2*cap(*kept)), FrameBufCap))
	return *kept
}

// putFrame writes the frame carrying payload from the sender from into buf,
// which is exactly 6+len(from)+len(payload) bytes long.
func putFrame(buf []byte, from string, payload []byte) {
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	binary.BigEndian.PutUint16(buf[4:], uint16(len(from)))
	copy(buf[6+copy(buf[6:], from):], payload)
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
// yields a fresh route or an error, never a silent success. A frame too large
// to send is refused before any route is chosen, so it costs no connection.
// The frame is built in the connection's write buffer and data is not kept.
//
//cscw:hotpath
func (e *TCPEndpoint) Send(to string, data []byte) error {
	n := 6 + len(e.id) + len(data)
	if n-4 > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", n-4)
	}
	tc, err := e.route(to)
	if err != nil {
		return err
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.dead {
		// Retired between our lookup and our lock; evict it under to as
		// well (its reader did so only under the last sender it read).
		e.evict(to, tc)
		return fmt.Errorf("send to %s: %w", to, net.ErrClosed)
	}
	buf := frameBuf(&tc.wbuf, n)
	putFrame(buf, e.id, data)
	// The socket write is this Send, under the connection's write lock: the
	// transport is where a hot path's frame meets the kernel, and callers
	// price the Send they make.
	if _, err := tc.c.Write(buf); err != nil {
		e.evict(to, tc)
		return fmt.Errorf("send to %s: %w", to, err)
	}
	return nil
}

// route returns the connection to send to peer to on, dialing one when there
// is none.
func (e *TCPEndpoint) route(to string) (*tcpConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	tc, ok := e.conns[to]
	e.mu.Unlock()
	if ok {
		return tc, nil
	}
	addr, found := e.book.Lookup(to)
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	// One dial per peer, on its first Send or after its connection ended;
	// never on a route that exists, and never under e.mu.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s (%s): %w", to, addr, err)
	}
	e.mu.Lock()
	if e.closed {
		// Close ran while we were dialing; it has already drained
		// e.open, so keeping c now would leak the socket forever.
		e.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if existing, race := e.conns[to]; race {
		// A route appeared while we dialed (another Send's dial, or the
		// peer dialing in); frames already sent may be on it, so use it.
		e.mu.Unlock()
		c.Close()
		return existing, nil
	}
	tc = &tcpConn{c: c, dialed: true}
	e.conns[to] = tc
	e.start(tc, to)
	e.mu.Unlock()
	return tc, nil
}

// closeWait bounds how long Close waits for a peer to close its end.
const closeWait = time.Second

// Close shuts the listener, if any, and all connections, then waits for
// their readers to exit. A connection is half-closed and read to the peer's
// EOF (for at most closeWait) before it is closed: closing it with input
// unread would reset it, and the reset discards whatever this side wrote
// that the peer had not read yet.
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
	var err error
	if e.listener != nil {
		err = e.listener.Close()
	}
	for _, tc := range open {
		// Its reader closes tc at the peer's EOF, or at the deadline.
		if cw, ok := tc.c.(interface{ CloseWrite() error }); !ok || cw.CloseWrite() != nil || tc.c.SetReadDeadline(time.Now().Add(closeWait)) != nil {
			tc.c.Close()
		}
	}
	e.wg.Wait()
	return err
}
