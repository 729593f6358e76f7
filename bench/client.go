package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is a running mheta-serve subprocess.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait has returned
}

// startServer runs bin on a free loopback port and returns once it
// listens.
func startServer(ctx context.Context, bin string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no mheta-serve binary (-serve-bin; bench/run.sh builds one)")
	}
	lw := &logWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = lw
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	go func() { // ends when the process exits; stop waits for it
		_ = cmd.Wait() // exit status is irrelevant: stop signals it
		close(s.exited)
	}()
	select {
	case s.addr = <-lw.addr:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("mheta-serve exited before listening: %s", lw.text())
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	s.stop()
	return nil, fmt.Errorf("mheta-serve did not start listening: %v %s", ctx.Err(), lw.text())
}

// stop sends SIGTERM (a graceful drain) and waits for the process to
// exit, killing it if the drain takes more than ten seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB is the server's peak resident set size so far.
func (s *server) peakRSSMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// logWatcher collects the server's standard error and reports the
// address from its "listening on http://<addr>" line.
type logWatcher struct {
	mu   sync.Mutex
	buf  []byte //mheta:guardedby mu
	addr chan string
	sent bool //mheta:guardedby mu
}

func (w *logWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) < 1<<16 {
		w.buf = append(w.buf, p...)
	}
	if !w.sent {
		if _, rest, ok := bytes.Cut(w.buf, []byte("listening on http://")); ok {
			if line, _, ok := bytes.Cut(rest, []byte("\n")); ok {
				w.sent = true
				select {
				case w.addr <- string(line):
				default: // capacity 1 and sent once, so never taken
				}
			}
		}
	}
	return len(p), nil
}

func (w *logWatcher) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(string(w.buf))
}

// conn is a minimal keep-alive HTTP/1.1 client on one TCP connection.
// It is not safe for concurrent use: each benchmark client owns one, so
// the clients' own overhead stays small and the same on every request.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	req  []byte
	resp bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10), host: addr}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and returns the status and the response body,
// which stays valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.host...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if _, err := c.c.Write(c.req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.resp.Bytes(), nil
}

// get fetches path and returns a copy of the body.
func (c *conn) get(path string) ([]byte, error) {
	code, body, err := c.do("GET", path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	return bytes.Clone(body), nil
}
