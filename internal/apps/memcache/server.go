package memcache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TCPServer serves the memcached text protocol over a Store: get/gets, set,
// delete, stats, version, quit — plus a non-standard administrative verb,
// "resize <maxbytes>", which is the deflation hook (the agent shrinks the
// cache through it, triggering LRU eviction exactly as §4 describes).
//
// Item flags are preserved by prefixing stored values with a 4-byte
// big-endian flag word.
type TCPServer struct {
	store *Store

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPServer wraps a store.
func NewTCPServer(store *Store) (*TCPServer, error) {
	if store == nil {
		return nil, errors.New("memcache: nil store")
	}
	return &TCPServer{store: store, conns: make(map[net.Conn]struct{})}, nil
}

// Serve accepts connections on ln until Close. It returns nil after Close.
func (s *TCPServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("memcache: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Registering under mu, only while open, orders every wg.Add before
		// Close's Wait and leaves Close no conn it did not close.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting and closes live connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *TCPServer) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimRight(line, "\r\n"))
		if len(fields) == 0 {
			continue
		}
		quit, err := s.dispatch(fields, r, w)
		if err != nil {
			return
		}
		if err := w.Flush(); err != nil || quit {
			return
		}
	}
}

func (s *TCPServer) dispatch(fields []string, r *bufio.Reader, w *bufio.Writer) (quit bool, err error) {
	switch fields[0] {
	case "get", "gets":
		return false, s.cmdGet(fields[1:], w)
	case "set":
		return false, s.cmdSet(fields[1:], r, w)
	case "delete":
		return false, s.cmdDelete(fields[1:], w)
	case "stats":
		return false, s.cmdStats(w)
	case "resize":
		return false, s.cmdResize(fields[1:], w)
	case "version":
		_, err = io.WriteString(w, "VERSION deflation-0.1\r\n")
		return false, err
	case "quit":
		return true, nil
	default:
		_, err = io.WriteString(w, "ERROR\r\n")
		return false, err
	}
}

func (s *TCPServer) cmdGet(keys []string, w *bufio.Writer) error {
	for _, key := range keys {
		raw, ok := s.store.Get(key)
		if !ok || len(raw) < 4 {
			continue
		}
		flags := binary.BigEndian.Uint32(raw[:4])
		data := raw[4:]
		if _, err := fmt.Fprintf(w, "VALUE %s %d %d\r\n", key, flags, len(data)); err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\r\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

func (s *TCPServer) cmdSet(args []string, r *bufio.Reader, w *bufio.Writer) error {
	if len(args) < 4 {
		_, err := io.WriteString(w, "CLIENT_ERROR bad set arguments\r\n")
		return err
	}
	key := args[0]
	flags, err1 := strconv.ParseUint(args[1], 10, 32)
	expSecs, err3 := strconv.Atoi(args[2])
	size, err2 := strconv.Atoi(args[3])
	if err1 != nil || err2 != nil || err3 != nil || expSecs < 0 || size < 0 || size > 8<<20 {
		_, err := io.WriteString(w, "CLIENT_ERROR bad set arguments\r\n")
		return err
	}
	data := make([]byte, size+2) // payload + trailing \r\n
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	raw := make([]byte, 4+size)
	binary.BigEndian.PutUint32(raw[:4], uint32(flags))
	copy(raw[4:], data[:size])
	if err := s.store.SetWithTTL(key, raw, time.Duration(expSecs)*time.Second); err != nil {
		_, werr := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", err)
		return werr
	}
	_, err := io.WriteString(w, "STORED\r\n")
	return err
}

func (s *TCPServer) cmdDelete(args []string, w *bufio.Writer) error {
	if len(args) < 1 {
		_, err := io.WriteString(w, "CLIENT_ERROR bad delete arguments\r\n")
		return err
	}
	if s.store.Delete(args[0]) {
		_, err := io.WriteString(w, "DELETED\r\n")
		return err
	}
	_, err := io.WriteString(w, "NOT_FOUND\r\n")
	return err
}

func (s *TCPServer) cmdStats(w *bufio.Writer) error {
	st := s.store.Stats()
	for _, kv := range [][2]string{
		{"cmd_get", strconv.FormatUint(st.Gets, 10)},
		{"get_hits", strconv.FormatUint(st.Hits, 10)},
		{"get_misses", strconv.FormatUint(st.Misses, 10)},
		{"cmd_set", strconv.FormatUint(st.Sets, 10)},
		{"evictions", strconv.FormatUint(st.Evictions, 10)},
		{"curr_items", strconv.Itoa(st.Items)},
		{"bytes", strconv.FormatInt(st.UsedBytes, 10)},
		{"limit_maxbytes", strconv.FormatInt(st.MaxBytes, 10)},
	} {
		if _, err := fmt.Fprintf(w, "STAT %s %s\r\n", kv[0], kv[1]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

func (s *TCPServer) cmdResize(args []string, w *bufio.Writer) error {
	if len(args) < 1 {
		_, err := io.WriteString(w, "CLIENT_ERROR bad resize arguments\r\n")
		return err
	}
	maxBytes, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil || maxBytes <= 0 {
		_, werr := io.WriteString(w, "CLIENT_ERROR bad resize arguments\r\n")
		return werr
	}
	if err := s.store.Resize(maxBytes); err != nil {
		_, werr := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", err)
		return werr
	}
	_, err = io.WriteString(w, "OK\r\n")
	return err
}

// Client is a minimal memcached text-protocol client for the TCPServer.
// Client methods are safe for sequential use; wrap with your own pool for
// concurrency.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a memcached server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(cmd string) (string, error) {
	if _, err := io.WriteString(c.w, cmd); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	return strings.TrimRight(line, "\r\n"), err
}

// Set stores key=value with the given flags.
func (c *Client) Set(key string, flags uint32, value []byte) error {
	cmd := fmt.Sprintf("set %s %d 0 %d\r\n%s\r\n", key, flags, len(value), value)
	resp, err := c.roundTrip(cmd)
	if err != nil {
		return err
	}
	if resp != "STORED" {
		return fmt.Errorf("memcache: set %q: %s", key, resp)
	}
	return nil
}

// Get fetches key; ok is false on miss.
func (c *Client) Get(key string) (value []byte, flags uint32, ok bool, err error) {
	resp, err := c.roundTrip("get " + key + "\r\n")
	if err != nil {
		return nil, 0, false, err
	}
	if resp == "END" {
		return nil, 0, false, nil
	}
	var rkey string
	var size int
	if _, err := fmt.Sscanf(resp, "VALUE %s %d %d", &rkey, &flags, &size); err != nil {
		return nil, 0, false, fmt.Errorf("memcache: get %q: bad response %q", key, resp)
	}
	data := make([]byte, size+2)
	if _, err := io.ReadFull(c.r, data); err != nil {
		return nil, 0, false, err
	}
	end, err := c.r.ReadString('\n')
	if err != nil {
		return nil, 0, false, err
	}
	if strings.TrimRight(end, "\r\n") != "END" {
		return nil, 0, false, fmt.Errorf("memcache: get %q: missing END", key)
	}
	return data[:size], flags, true, nil
}

// Delete removes key, reporting whether it existed.
func (c *Client) Delete(key string) (bool, error) {
	resp, err := c.roundTrip("delete " + key + "\r\n")
	if err != nil {
		return false, err
	}
	return resp == "DELETED", nil
}

// Resize issues the deflation extension verb.
func (c *Client) Resize(maxBytes int64) error {
	resp, err := c.roundTrip(fmt.Sprintf("resize %d\r\n", maxBytes))
	if err != nil {
		return err
	}
	if resp != "OK" {
		return fmt.Errorf("memcache: resize: %s", resp)
	}
	return nil
}

// Stats fetches the server counters as a map.
func (c *Client) Stats() (map[string]string, error) {
	if _, err := io.WriteString(c.w, "stats\r\n"); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			return out, nil
		}
		var k, v string
		if _, err := fmt.Sscanf(line, "STAT %s %s", &k, &v); err == nil {
			out[k] = v
		}
	}
}
