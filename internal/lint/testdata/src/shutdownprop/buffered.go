package shutdownprop

import (
	"bufio"
	"io"
	"net"
	"strings"
	"sync"
)

// Buffered I/O: a bufio.Reader over a conn is as stoppable as the conn. The
// fixture is loaded under the transport's import path (see lint_test.go),
// since layer-net reserves the net package for the transport and the fabric.

type conns struct {
	wg sync.WaitGroup
	c  net.Conn
}

// runBuffered reads the conn through a bufio.Reader: the reads block on the
// conn, so its Close unblocks them just as it would a bare Read.
func (s *conns) runBuffered() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		br := bufio.NewReader(s.c)
		buf := make([]byte, 4)
		for {
			if _, err := io.ReadFull(br, buf); err != nil {
				return
			}
		}
	}()
}

// badBuffered has the same shape over an in-memory reader: nothing the
// module can Close stands behind the buffer.
func (s *conns) badBuffered() {
	s.wg.Add(1)
	go func() { // want "shutdown-prop.*goroutine spawned by badBuffered loops forever with no reachable stop signal"
		defer s.wg.Done()
		br := bufio.NewReader(strings.NewReader("frames"))
		buf := make([]byte, 4)
		for {
			if _, err := io.ReadFull(br, buf); err != nil {
				return
			}
		}
	}()
}

func (s *conns) Close() {
	_ = s.c.Close()
	s.wg.Wait()
}
