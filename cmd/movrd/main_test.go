package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the read-side timeouts and the deliberately
// unset write timeout that long-lived SSE and ?wait=1 responses need.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Errorf("timeouts unset: header %v, read %v, idle %v", s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (streams outlive any fixed bound)", s.WriteTimeout)
	}
}

// TestStalledHeaderDropped sends half a request header and stops: the
// server must close the connection once ReadHeaderTimeout passes.
func TestStalledHeaderDropped(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	s.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: movrd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.SetReadDeadline(start.Add(5 * time.Second))
	_, err = io.Copy(io.Discard, c)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("stalled connection still open after 5s")
	}
	if el := time.Since(start); el < s.ReadHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", el, s.ReadHeaderTimeout)
	}
}
