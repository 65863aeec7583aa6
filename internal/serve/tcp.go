package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// TCPServer serves the binary wire protocol over TCP: one goroutine per
// connection, frames decoded and submitted through the engine, responses
// written back in request order. Shutdown drains in-flight connections
// until the deadline, then closes them hard — the engine's drain
// deadline has already converted still-pending requests to shutdown
// status frames by then, so clients see explicit back-pressure, not a
// hang.
type TCPServer struct {
	e *Engine
	l net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// ServeTCP binds addr (":0" for ephemeral) and accepts in a background
// goroutine.
func ServeTCP(addr string, e *Engine) (*TCPServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{e: e, l: l, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address (host:port).
func (s *TCPServer) Addr() string { return s.l.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	dims := s.e.cfg.Backend.Dims()
	var inBuf, outBuf []byte
	for {
		frame, err := readFrame(br, inBuf)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logConnErr(conn, err)
			}
			return
		}
		inBuf = frame
		req, err := decodeRequest(frame)
		if err != nil {
			// Protocol-level garbage: answer with a bad-request frame and
			// keep the connection (framing is still intact).
			req = NewRequest(0)
			req.Resp.Err = &BadRequestError{Msg: err.Error()}
		} else if serr := s.e.Do(context.Background(), req); serr != nil {
			req.Resp.Err = serr
		}
		outBuf = encodeResponse(outBuf, req, dims)
		if err := writeFrame(bw, outBuf); err != nil {
			return
		}
		// Flush eagerly when no further frame is already buffered: a
		// pipelining client keeps the writer busy, a ping-pong client
		// gets its answer now.
		if br.Buffered() < 4 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func (s *TCPServer) logConnErr(conn net.Conn, err error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		fmt.Fprintf(os.Stderr, "serve: tcp %s: %v\n", conn.RemoteAddr(), err)
	}
}

// Shutdown stops accepting, waits for in-flight connections to finish
// until ctx expires, then force-closes the stragglers. Call after (or
// concurrently with) Engine.Shutdown so pending requests resolve instead
// of blocking connection goroutines forever.
func (s *TCPServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.l.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Client is a wire-protocol TCP client: synchronous ping-pong per call,
// safe for one goroutine (loadgen dials one per worker).
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	dims uint8

	inBuf, outBuf []byte
}

// DialTCP connects a wire client; dims must match the served index.
func DialTCP(addr string, dims uint8) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
		dims: dims,
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends r and fills r.Resp from the response frame. Engine-level
// back-pressure comes back as *WireError in r.Resp.Err (and is returned);
// transport errors poison the connection.
func (c *Client) Do(r *Request) error {
	c.outBuf = encodeRequest(c.outBuf, r, c.dims)
	if err := writeFrame(c.bw, c.outBuf); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	frame, err := readFrame(c.br, c.inBuf)
	if err != nil {
		return err
	}
	c.inBuf = frame
	if err := decodeResponse(frame, c.dims, &r.Resp); err != nil {
		return err
	}
	return r.Resp.Err
}
