package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"qcec/internal/core"
)

// TestStalledConnectionsAreClosed: HTTPServer sets the connection
// timeouts and no write timeout, and with the timeouts shortened it closes
// a connection that stalls in its headers, one that declares a 4 MiB body
// and sends none of it or only part of it, and an idle keep-alive
// connection, while keep-alive traffic that pauses for less than the idle
// timeout passes on one connection, and a synchronous check that outlasts
// the read timeout is still answered.
func TestStalledConnectionsAreClosed(t *testing.T) {
	const header, read, idle = 100 * time.Millisecond, 300 * time.Millisecond, 300 * time.Millisecond
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	exec := s.exec
	s.exec = func(j *job) core.Report {
		if j.req.Options.Seed == 7 { // the slow check below
			time.Sleep(2 * read)
		}
		return exec(j)
	}
	hs := s.HTTPServer()
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout ||
		hs.IdleTimeout != idleTimeout || hs.WriteTimeout != 0 {
		t.Fatalf("HTTPServer timeouts: header %v, read %v, idle %v, write %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout = header, read, idle
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close()
		<-served
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	addr := ln.Addr().String()

	// Keep-alive traffic: every request is answered on the first
	// connection, although together they take longer than the read
	// timeout, and so does a check that alone takes longer.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	bodies := []string{
		checkBody(bellQASM, bellQASM),
		checkBody(bellQASM, bellFlippedQASM),
		checkBody(bellQASM, bellQASM),
		string(marshalCheck(t, CheckRequest{G: bellQASM, Gp: bellFlippedQASM, Options: CheckOptions{Seed: 7}})),
	}
	for i, body := range bodies {
		if i > 0 {
			time.Sleep(idle / 2)
		}
		reused := false
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/check", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("keep-alive request %d: %v", i, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"verdict"`) {
			t.Fatalf("keep-alive request %d: %d %s (%v)", i, resp.StatusCode, data, err)
		}
		if i > 0 && !reused {
			t.Errorf("keep-alive request %d opened a new connection", i)
		}
	}

	const post = "POST /v1/check HTTP/1.1\r\nHost: qcecd\r\nContent-Type: application/json\r\n"
	for _, stall := range []struct{ name, sent string }{
		{"headers unfinished", post},
		{"no body byte", post + "Content-Length: 4194304\r\n\r\n"},
		{"part of the body", post + "Content-Length: 4194304\r\n\r\n" + `{"g":"` + strings.Repeat("h q[0];", 20000)},
		{"idle after a request", "GET /healthz HTTP/1.1\r\nHost: qcecd\r\n\r\n"},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, stall.sent); err != nil {
			t.Fatalf("%s: %v", stall.name, err)
		}
		// The server closes the connection, perhaps after an error
		// response, long before this deadline.
		start := time.Now()
		_ = conn.SetReadDeadline(start.Add(5 * time.Second))
		if _, err := io.ReadAll(conn); err != nil {
			t.Errorf("%s: the connection was still open after %v: %v", stall.name, time.Since(start), err)
		}
		conn.Close()
	}
}
