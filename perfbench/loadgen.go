package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// endpoint names one request kind the generator sends. The strings match
// the endpoint label of the server's memes_requests_total family.
type endpoint string

const (
	epMatch     endpoint = "match"
	epImage     endpoint = "match_image"
	epAssociate endpoint = "associate"
)

func (e endpoint) path() string {
	switch e {
	case epImage:
		return "/v1/match/image"
	default:
		return "/v1/" + string(e)
	}
}

func (e endpoint) contentType() string {
	if e == epImage {
		return "image/png"
	}
	return "application/json"
}

// request is one scheduled HTTP request. Its wire bytes are built before
// the timed window opens, so the generator only copies them to a socket.
type request struct {
	ep   endpoint
	at   time.Duration // intended send time, from the phase start
	wire []byte
	ref  int // index into the workload's input (hash, batch or image)
}

// sample is what the generator observed for one request.
type sample struct {
	sent    time.Duration // actual write time, from the phase start
	latency time.Duration // completion minus intended send time
	lag     time.Duration // timer lateness when the worker slept for this request; -1 if it did not
	status  int           // 0 when the transport failed
	reason  string        // error reason slug, "transport" or "" on success
	body    []byte
}

func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 }

// stream is an open-loop arrival schedule served by a fixed set of
// keep-alive connections. Each connection's worker takes the next request
// in schedule order; when every connection is busy the request waits, and
// that wait counts in its latency because latency runs from the intended
// send time. A schedule whose requests are all due at once, cut off by
// until, keeps every connection busy: a closed loop.
type stream struct {
	name  string
	reqs  []request
	conns []*conn
	out   []sample
	next  atomic.Int64
	start time.Time     // the phase start every at is relative to
	until time.Duration // when > 0, no request is sent this long after start
}

// tag adds an X-Bench-Id header naming each request, so the traced server
// can join its handler span to the client's request span.
func (s *stream) tag() {
	for i := range s.reqs {
		w := s.reqs[i].wire
		j := bytes.Index(w, []byte("\r\n")) + 2
		id := fmt.Sprintf("X-Bench-Id: %s\r\n", s.id(i))
		s.reqs[i].wire = append(append(append([]byte(nil), w[:j]...), id...), w[j:]...)
	}
}

func (s *stream) id(i int) string { return fmt.Sprintf("%s-%d", s.name, i) }

func newStream(name string, reqs []request, conns ...*conn) *stream {
	return &stream{name: name, reqs: reqs, conns: conns, out: make([]sample, len(reqs))}
}

// buildWire renders a complete HTTP/1.1 request.
func buildWire(ep endpoint, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		ep.path(), benchHost, ep.contentType(), len(body))
	b.Write(body)
	return b.Bytes()
}

// conn is one keep-alive connection to the server under test.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func dialConn(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.c != nil {
		c.c.Close()
	}
	nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dialing %s: %w", c.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // latency over throughput; failure only costs Nagle delay
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// do writes one pre-built request and reads the full response.
func (c *conn) do(wire []byte) (int, []byte, error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// preciseSleeper waits with nanosleep on a locked OS thread whose timer
// slack is cut to 1ns: the runtime timer wakes up to a millisecond late on
// Linux, which would swamp lookups that take a tenth of that.
func preciseSleeper() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: default slack is 50µs
}

func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// runPhase runs the streams concurrently from one shared start time and
// returns when every request has completed.
func runPhase(streams ...*stream) {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for _, s := range streams {
		s.start = start
		for _, c := range s.conns {
			wg.Add(1)
			go func(s *stream, c *conn) {
				defer wg.Done()
				preciseSleeper()
				defer runtime.UnlockOSThread()
				for {
					if s.until > 0 && time.Since(start) >= s.until {
						return
					}
					i := int(s.next.Add(1) - 1)
					if i >= len(s.reqs) {
						return
					}
					r := &s.reqs[i]
					due := start.Add(r.at)
					out := &s.out[i]
					out.lag = -1
					if time.Now().Before(due) {
						sleepUntil(due)
						out.lag = time.Since(due)
					}
					out.sent = time.Since(start)
					status, body, err := c.do(r.wire)
					out.latency = time.Since(due)
					if err != nil {
						out.reason = "transport"
						_ = c.redial() // a dead connection fails its later requests too
						continue
					}
					out.status, out.body = status, body
					if !out.ok() {
						out.reason = errorReason(body)
					}
				}
			}(s, c)
		}
	}
	wg.Wait()
	for _, s := range streams {
		// A stream cut off by until keeps the requests it sent: every
		// index a worker took was sent.
		if n := int(s.next.Load()); n < len(s.reqs) {
			s.reqs, s.out = s.reqs[:n], s.out[:n]
		}
	}
}

// errorReason extracts the reason slug of the server's error envelope.
func errorReason(body []byte) string {
	var e struct {
		Reason string `json:"reason"`
	}
	if json.Unmarshal(body, &e) != nil || e.Reason == "" {
		return "unparsed"
	}
	return e.Reason
}

// schedule spaces n requests evenly at rate per second.
func schedule(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) * float64(time.Second) / rate)
	}
	return out
}

// httpGet fetches a small control endpoint (readyz, statsz, metrics) on a
// fresh connection, outside any timed window.
func httpGet(addr, path string, timeout time.Duration) (int, []byte, error) {
	return httpDo(addr, http.MethodGet, path, nil, timeout)
}

func httpDo(addr, method, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	cl := &http.Client{Timeout: timeout, Transport: &http.Transport{DisableKeepAlives: true}}
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// errNotReady reports a server that did not become ready in time.
var errNotReady = errors.New("server did not become ready")

// waitReady polls /v1/readyz until it answers 200 and returns when it did.
func waitReady(addr string, limit time.Duration, exited <-chan struct{}) (time.Time, error) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return time.Time{}, fmt.Errorf("%w: process exited", errNotReady)
		default:
		}
		if st, _, err := httpGet(addr, "/v1/readyz", time.Second); err == nil && st == http.StatusOK {
			return time.Now(), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("%w within %v", errNotReady, limit)
}
