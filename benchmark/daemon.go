package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/stkde"
)

// daemon is a real DensityServer behind a real TCP listener on loopback —
// what a user of cmd/stkded talks to, minus the flag parsing.
type daemon struct {
	srv  *stkde.DensityServer
	hs   *http.Server
	base string
	done chan error
}

// startDaemon binds 127.0.0.1:0 and serves cfg. With recover set, the
// journals under cfg.WAL are replayed before the listener accepts, as
// cmd/stkded does at boot; the wall time of that Recover is returned.
func startDaemon(cfg stkde.ServeConfig, recover bool) (*daemon, time.Duration, error) {
	srv := stkde.NewDensityServer(cfg)
	var took time.Duration
	if recover {
		t0 := time.Now()
		if _, err := srv.Recover(); err != nil {
			return nil, 0, fmt.Errorf("recover: %w", err)
		}
		took = time.Since(t0)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, took, nil
}

// stop drains the listener, then the server (final checkpoints, journal
// close, shard connections), and waits for the accept loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	<-d.done
	return err
}

// client is one connection's worth of HTTP client: each load-generator
// goroutine owns one, so the generator never holds more connections than
// it has loops.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body
// aliases the client's buffer and is valid until the next call.
func (c *client) do(method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// call is do for set-up and verification requests: any transport error or
// non-2xx status is an error, and the body is decoded into out.
func (c *client) call(method, path, ctype string, body []byte, out any) error {
	code, b, err := c.do(method, path, ctype, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, shortPath(path), err)
	}
	if code < 200 || code > 299 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, shortPath(path), code, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, shortPath(path), err)
	}
	return nil
}

func shortPath(p string) string {
	if i := strings.IndexByte(p, '?'); i >= 0 {
		return p[:i]
	}
	return p
}

// vars reads the daemon's /debug/vars counters (numeric entries only).
func (c *client) vars() (map[string]float64, error) {
	var raw map[string]any
	if err := c.call(http.MethodGet, "/debug/vars", "", nil, &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
