package redislike

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"

	"krr/internal/hashing"
	"krr/internal/trace"
)

// Server exposes an Engine over a minimal RESP2 subset: PING, SET,
// GET, DEL, DBSIZE, INFO, FLUSHALL, QUIT. Values are not retained —
// only their sizes — so GET returns a synthesized value of the stored
// length, which preserves all cache dynamics while keeping memory
// bounded by metadata.
type Server struct {
	mu     sync.Mutex
	engine *Engine

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}
}

// NewServer wraps an engine configuration.
func NewServer(cfg Config) *Server {
	return &Server{engine: NewEngine(cfg), closed: make(chan struct{})}
}

// Listen starts accepting on addr ("127.0.0.1:0" picks a free port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				return
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops the listener and waits for connections to drain.
func (s *Server) Close() error {
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		if quit := s.dispatch(w, args); quit {
			w.Flush()
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch executes one command, returning true on QUIT.
func (s *Server) dispatch(w *bufio.Writer, args []string) bool {
	if len(args) == 0 {
		writeError(w, "empty command")
		return false
	}
	cmd := strings.ToUpper(args[0])
	s.mu.Lock()
	defer s.mu.Unlock()
	switch cmd {
	case "PING":
		fmt.Fprintf(w, "+PONG\r\n")
	case "SET":
		if len(args) != 3 {
			writeError(w, "wrong number of arguments for 'set'")
			return false
		}
		s.engine.Set(parseKey(args[1]), uint32(len(args[2])))
		fmt.Fprintf(w, "+OK\r\n")
	case "GET":
		if len(args) != 2 {
			writeError(w, "wrong number of arguments for 'get'")
			return false
		}
		size, ok := s.engine.Get(parseKey(args[1]))
		if !ok {
			fmt.Fprintf(w, "$-1\r\n")
			return false
		}
		fmt.Fprintf(w, "$%d\r\n", size)
		writeZeros(w, int(size))
		fmt.Fprintf(w, "\r\n")
	case "DEL":
		if len(args) < 2 {
			writeError(w, "wrong number of arguments for 'del'")
			return false
		}
		n := 0
		for _, k := range args[1:] {
			if s.engine.Del(parseKey(k)) {
				n++
			}
		}
		fmt.Fprintf(w, ":%d\r\n", n)
	case "DBSIZE":
		fmt.Fprintf(w, ":%d\r\n", s.engine.Len())
	case "INFO":
		info := s.engine.Info()
		fmt.Fprintf(w, "$%d\r\n%s\r\n", len(info), info)
	case "FLUSHALL":
		// Like Redis, FLUSHALL drops the data but keeps the config in
		// force, including what CONFIG SET changed since start-up.
		s.engine = NewEngine(s.engine.cfg)
		fmt.Fprintf(w, "+OK\r\n")
	case "CONFIG":
		s.handleConfig(w, args[1:])
	case "QUIT":
		fmt.Fprintf(w, "+OK\r\n")
		return true
	default:
		writeError(w, "unknown command '"+args[0]+"'")
	}
	return false
}

// handleConfig implements the CONFIG GET/SET subset used for online
// reconfiguration: maxmemory and maxmemory-samples.
func (s *Server) handleConfig(w *bufio.Writer, args []string) {
	if len(args) < 2 {
		writeError(w, "wrong number of arguments for 'config'")
		return
	}
	param := strings.ToLower(args[1])
	switch strings.ToUpper(args[0]) {
	case "GET":
		var val string
		switch param {
		case "maxmemory":
			val = strconv.FormatUint(s.engine.cfg.MaxMemory, 10)
		case "maxmemory-samples":
			val = strconv.Itoa(s.engine.Samples())
		case "maxmemory-policy":
			val = s.engine.Policy().String()
		default:
			fmt.Fprintf(w, "*0\r\n")
			return
		}
		fmt.Fprintf(w, "*2\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n", len(param), param, len(val), val)
	case "SET":
		if len(args) != 3 {
			writeError(w, "wrong number of arguments for 'config set'")
			return
		}
		switch param {
		case "maxmemory":
			v, err := strconv.ParseUint(args[2], 10, 64)
			if err != nil {
				writeError(w, "argument couldn't be parsed into an integer")
				return
			}
			s.engine.SetMaxMemory(v)
		case "maxmemory-samples":
			v, err := strconv.Atoi(args[2])
			if err != nil || v < 1 {
				writeError(w, "argument couldn't be parsed into an integer")
				return
			}
			s.engine.SetSamples(v)
		default:
			writeError(w, "unsupported CONFIG parameter: "+param)
			return
		}
		fmt.Fprintf(w, "+OK\r\n")
	default:
		writeError(w, "unknown CONFIG subcommand")
	}
}

// parseKey converts a textual key: decimal integers map directly,
// anything else is hashed.
func parseKey(s string) uint64 {
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v
	}
	return hashing.String(s)
}

func writeError(w *bufio.Writer, msg string) {
	fmt.Fprintf(w, "-ERR %s\r\n", msg)
}

func writeZeros(w *bufio.Writer, n int) {
	var chunk [256]byte
	for i := range chunk {
		chunk[i] = 'x'
	}
	for n > 0 {
		c := n
		if c > len(chunk) {
			c = len(chunk)
		}
		w.Write(chunk[:c])
		n -= c
	}
}

// errProtocol reports malformed RESP input.
var errProtocol = errors.New("redislike: protocol error")

// readCommand parses one RESP command: either an array of bulk strings
// or a bare inline line (telnet style).
func readCommand(r *bufio.Reader) ([]string, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, errProtocol
	}
	if line[0] != '*' {
		return strings.Fields(line), nil // inline command
	}
	n, err := strconv.Atoi(line[1:])
	if err != nil || n < 0 || n > 1024 {
		return nil, errProtocol
	}
	args := make([]string, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, errProtocol
		}
		size, err := strconv.Atoi(hdr[1:])
		if err != nil || size < 0 || size > 64<<20 {
			return nil, errProtocol
		}
		buf := make([]byte, size+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		if buf[size] != '\r' || buf[size+1] != '\n' {
			return nil, errProtocol
		}
		args = append(args, string(buf[:size]))
	}
	return args, nil
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// Client is a minimal RESP client for the examples and tests.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a redislike (or real Redis) server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do issues one command and returns the raw reply.
func (c *Client) Do(args ...string) (string, error) {
	fmt.Fprintf(c.w, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(c.w, "$%d\r\n%s\r\n", len(a), a)
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.readReply()
}

func (c *Client) readReply() (string, error) {
	line, err := readLine(c.r)
	if err != nil {
		return "", err
	}
	if len(line) == 0 {
		return "", errProtocol
	}
	switch line[0] {
	case '+', ':':
		return line[1:], nil
	case '-':
		return "", errors.New(line[1:])
	case '$':
		size, err := strconv.Atoi(line[1:])
		if err != nil {
			return "", errProtocol
		}
		if size < 0 {
			return "", nil // nil bulk
		}
		buf := make([]byte, size+2)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return "", err
		}
		return string(buf[:size]), nil
	case '*':
		n, err := strconv.Atoi(line[1:])
		if err != nil || n < 0 || n > 1024 {
			return "", errProtocol
		}
		parts := make([]string, 0, n)
		for i := 0; i < n; i++ {
			part, err := c.readReply()
			if err != nil {
				return "", err
			}
			parts = append(parts, part)
		}
		return strings.Join(parts, " "), nil
	default:
		return "", errProtocol
	}
}

// ConfigSet issues CONFIG SET param value.
func (c *Client) ConfigSet(param, value string) error {
	_, err := c.Do("CONFIG", "SET", param, value)
	return err
}

// ConfigGet issues CONFIG GET param, returning the value.
func (c *Client) ConfigGet(param string) (string, error) {
	reply, err := c.Do("CONFIG", "GET", param)
	if err != nil {
		return "", err
	}
	fields := strings.Fields(reply)
	if len(fields) != 2 {
		return "", fmt.Errorf("redislike: unexpected CONFIG GET reply %q", reply)
	}
	return fields[1], nil
}

// TunableClient adapts a RESP connection to the DLRU controller's
// Tunable surface: cache-aside Access plus online CONFIG SET of
// maxmemory-samples — exactly how DLRU drives a real Redis. Network
// errors are retained (Err) rather than returned, matching the
// controller's fire-and-forget interface.
type TunableClient struct {
	c       *Client
	lastErr error
}

// NewTunableClient wraps an established client.
func NewTunableClient(c *Client) *TunableClient { return &TunableClient{c: c} }

// Err returns the first error encountered, if any.
func (t *TunableClient) Err() error { return t.lastErr }

// Access performs a cache-aside get-then-fill and reports hits.
func (t *TunableClient) Access(req trace.Request) bool {
	switch req.Op {
	case trace.OpDelete:
		if _, err := t.c.Do("DEL", strconv.FormatUint(req.Key, 10)); err != nil && t.lastErr == nil {
			t.lastErr = err
		}
		return false
	case trace.OpSet:
		if err := t.c.Set(req.Key, int(req.Size)); err != nil && t.lastErr == nil {
			t.lastErr = err
		}
		return false
	default:
		_, ok, err := t.c.Get(req.Key)
		if err != nil {
			if t.lastErr == nil {
				t.lastErr = err
			}
			return false
		}
		if ok {
			return true
		}
		if err := t.c.Set(req.Key, int(req.Size)); err != nil && t.lastErr == nil {
			t.lastErr = err
		}
		return false
	}
}

// SetSamplingSize reconfigures maxmemory-samples over the wire.
func (t *TunableClient) SetSamplingSize(k int) {
	if err := t.c.ConfigSet("maxmemory-samples", strconv.Itoa(k)); err != nil && t.lastErr == nil {
		t.lastErr = err
	}
}

// Set stores a value of the given size.
func (c *Client) Set(key uint64, size int) error {
	_, err := c.Do("SET", strconv.FormatUint(key, 10), strings.Repeat("v", size))
	return err
}

// Get fetches a key, returning the value length and presence.
func (c *Client) Get(key uint64) (int, bool, error) {
	v, err := c.Do("GET", strconv.FormatUint(key, 10))
	if err != nil {
		return 0, false, err
	}
	if v == "" {
		return 0, false, nil
	}
	return len(v), true, nil
}
