package memcache

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T, maxBytes int64) (*Client, *Store, *TCPServer) {
	t.Helper()
	store := mustStore(t, maxBytes)
	srv, err := NewTCPServer(store)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, store, srv
}

func TestNewTCPServerValidation(t *testing.T) {
	if _, err := NewTCPServer(nil); err == nil {
		t.Error("nil store accepted")
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	c, _, _ := startServer(t, 1<<20)

	if err := c.Set("greeting", 42, []byte("hello, world")); err != nil {
		t.Fatal(err)
	}
	v, flags, ok, err := c.Get("greeting")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || flags != 42 || !bytes.Equal(v, []byte("hello, world")) {
		t.Errorf("get = %q/%d/%v", v, flags, ok)
	}

	// Binary-safe payloads.
	payload := []byte{0, 1, 2, '\r', '\n', 255}
	if err := c.Set("bin", 0, payload); err != nil {
		t.Fatal(err)
	}
	v, _, ok, err = c.Get("bin")
	if err != nil || !ok || !bytes.Equal(v, payload) {
		t.Errorf("binary get = %v/%v/%v", v, ok, err)
	}

	// Miss.
	if _, _, ok, err := c.Get("missing"); err != nil || ok {
		t.Errorf("miss = %v/%v", ok, err)
	}

	// Delete.
	if existed, err := c.Delete("greeting"); err != nil || !existed {
		t.Errorf("delete = %v/%v", existed, err)
	}
	if existed, _ := c.Delete("greeting"); existed {
		t.Error("double delete reported DELETED")
	}
}

func TestProtocolStats(t *testing.T) {
	c, _, _ := startServer(t, 1<<20)
	c.Set("k", 0, []byte("v"))
	c.Get("k")
	c.Get("nope")
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["cmd_set"] != "1" || st["get_hits"] != "1" || st["get_misses"] != "1" || st["curr_items"] != "1" {
		t.Errorf("stats = %v", st)
	}
}

func TestProtocolResizeEvicts(t *testing.T) {
	c, store, _ := startServer(t, 1<<20)
	for i := 0; i < 50; i++ {
		if err := c.Set(fmt.Sprintf("k%02d", i), 0, make([]byte, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	before := store.Len()
	if err := c.Resize(10_000); err != nil {
		t.Fatal(err)
	}
	if store.Len() >= before {
		t.Errorf("resize did not evict: %d -> %d", before, store.Len())
	}
	if store.MaxBytes() != 10_000 {
		t.Errorf("max bytes = %d", store.MaxBytes())
	}
	if err := c.Resize(-5); err == nil {
		t.Error("negative resize accepted")
	}
}

func TestProtocolErrors(t *testing.T) {
	c, _, _ := startServer(t, 1<<20)
	resp, err := c.roundTrip("bogus\r\n")
	if err != nil || resp != "ERROR" {
		t.Errorf("bogus cmd = %q/%v", resp, err)
	}
	resp, err = c.roundTrip("set onlykey\r\n")
	if err != nil || !strings.HasPrefix(resp, "CLIENT_ERROR") {
		t.Errorf("bad set = %q/%v", resp, err)
	}
	resp, err = c.roundTrip("delete\r\n")
	if err != nil || !strings.HasPrefix(resp, "CLIENT_ERROR") {
		t.Errorf("bad delete = %q/%v", resp, err)
	}
	resp, err = c.roundTrip("version\r\n")
	if err != nil || !strings.HasPrefix(resp, "VERSION") {
		t.Errorf("version = %q/%v", resp, err)
	}
}

func TestProtocolMultiGet(t *testing.T) {
	c, _, _ := startServer(t, 1<<20)
	c.Set("a", 1, []byte("va"))
	c.Set("b", 2, []byte("vb"))
	// Raw multi-get: two VALUE blocks then END.
	if _, err := fmt.Fprintf(c.w, "get a b missing\r\n"); err != nil {
		t.Fatal(err)
	}
	c.w.Flush()
	var got []string
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		got = append(got, line)
		if line == "END" {
			break
		}
	}
	joined := strings.Join(got, "|")
	if !strings.Contains(joined, "VALUE a 1 2") || !strings.Contains(joined, "VALUE b 2 2") {
		t.Errorf("multi-get response: %v", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	c0, store, _ := startServer(t, 8<<20)
	addr := c0.conn.RemoteAddr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := c.Set(key, uint32(g), []byte(key)); err != nil {
					errs <- err
					return
				}
				v, _, ok, err := c.Get(key)
				if err != nil || !ok || string(v) != key {
					errs <- fmt.Errorf("get %s = %q/%v/%v", key, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if store.Len() != 400 {
		t.Errorf("items = %d, want 400", store.Len())
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	c, _, srv := startServer(t, 1<<20)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", 0, []byte("v")); err == nil {
		t.Error("set succeeded after server close")
	}
}

// TestCloseRacingDialsReturns races Close against a burst of dials whose
// clients keep their connections open. A conn accepted just before Close and
// registered after it would keep a reader — and Close's Wait — blocked
// forever, so every round must close within its deadline.
func TestCloseRacingDialsReturns(t *testing.T) {
	const rounds, dials = 200, 8
	for round := 0; round < rounds; round++ {
		srv, err := NewTCPServer(mustStore(t, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		// One round trip first, so Serve is accepting when the race starts.
		warm, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.roundTrip("version\r\n"); err != nil {
			t.Fatal(err)
		}
		conns := make(chan net.Conn, dials)
		for i := 0; i < dials; i++ {
			go func() {
				c, _ := net.Dial("tcp", ln.Addr().String()) // nil on error
				conns <- c
			}()
		}
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case <-closed:
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: Close still waiting after 2s with dials in flight", round)
		}
		if err := <-served; err != nil {
			t.Fatalf("round %d: Serve = %v after Close, want nil", round, err)
		}
		for i := 0; i < dials; i++ {
			if c := <-conns; c != nil {
				c.Close()
			}
		}
		warm.Close()
	}
}

// TestProtocolRobustness throws pseudo-random garbage lines at the server:
// it must answer with protocol errors, never crash, and keep serving valid
// clients afterwards.
func TestProtocolRobustness(t *testing.T) {
	c, _, _ := startServer(t, 1<<20)
	garbage := []string{
		"\r\n",
		"set\r\n",
		"set k notanumber 0 5\r\nhello\r\n",
		"set k 0 0 -3\r\n",
		"set k 0 0 99999999999\r\n",
		"get\r\n",
		"resize\r\n",
		"resize banana\r\n",
		"stats extra args\r\n",
		"\x00\x01\x02\r\n",
		strings.Repeat("x", 4096) + "\r\n",
	}
	for _, g := range garbage {
		if _, err := fmt.Fprint(c.w, g); err != nil {
			t.Fatal(err)
		}
		c.w.Flush()
		// Drain whatever the server answered (possibly multiple lines for
		// stats); resync on a version probe.
		if _, err := fmt.Fprint(c.w, "version\r\n"); err != nil {
			t.Fatal(err)
		}
		c.w.Flush()
		for {
			line, err := c.r.ReadString('\n')
			if err != nil {
				t.Fatalf("connection died after %q: %v", g, err)
			}
			if strings.HasPrefix(line, "VERSION") {
				break
			}
		}
	}
	// Still serving correctly.
	if err := c.Set("after", 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	v, _, ok, err := c.Get("after")
	if err != nil || !ok || string(v) != "ok" {
		t.Errorf("post-garbage get = %q/%v/%v", v, ok, err)
	}
}
