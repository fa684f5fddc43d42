package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// The planted regression: a relay in front of memeserve that holds each
// response back, before its first byte, as long as the request has taken
// so far — doubling the service time a client sees through the relay. The
// same relay without the hold is the baseline it is compared with, so that
// only the doubling differs. It copies bytes between one client connection
// and one upstream connection, which is enough for the generator's strict
// request-response use of each keep-alive connection. The benchmark's
// comparison must flag it; see README.md.

// proxyMain is the "perfbench proxy" child process.
func proxyMain(args []string) {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	listen := fs.String("listen", "", "listen address")
	upstream := fs.String("upstream", "", "memeserve address")
	slow := fs.Bool("slow", false, "double the service time")
	_ = fs.Parse(args)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		go relay(c, *upstream, *slow) // ends with either connection
	}
}

// relay copies one client connection to its own upstream connection and
// back. With slow set, the first response bytes after a request wait as
// long again as the time since that request's first bytes.
func relay(c net.Conn, upstream string, slow bool) {
	defer c.Close()
	u, err := net.Dial("tcp", upstream)
	if err != nil {
		return
	}
	defer u.Close()
	var asked atomic.Int64 // first byte of the outstanding request, unix ns; 0 when none
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				asked.CompareAndSwap(0, time.Now().UnixNano())
				if _, werr := u.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				u.Close() // ends the response loop below
				return
			}
		}
	}()
	// The hold is as short as a lookup, which the runtime timer would
	// overshoot many times over.
	preciseSleeper()
	defer runtime.UnlockOSThread()
	buf := make([]byte, 64<<10)
	for {
		n, err := u.Read(buf)
		if n > 0 {
			if t := asked.Swap(0); slow && t != 0 {
				asked := time.Unix(0, t)
				sleepUntil(asked.Add(2 * time.Since(asked)))
			}
			if _, werr := c.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// startProxy starts the slow proxy in front of s's memeserve and returns
// its address.
func (b *bench) startProxy(s *system) (string, error) {
	b.stopProxy()
	addr, err := freeAddr()
	if err != nil {
		return "", err
	}
	p, err := startProc(b.self, []string{"proxy", "-listen", addr, "-upstream", s.addr, "-slow=" + fmt.Sprint(b.plant == "slow2x")}, filepath.Join(b.work, "proxy.log"))
	if err != nil {
		return "", err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _, err := httpGet(addr, "/v1/readyz", time.Second); err == nil && st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			p.kill()
			return "", fmt.Errorf("slow proxy did not come up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.proxy = p
	return addr, nil
}

func (b *bench) stopProxy() {
	if b.proxy != nil {
		b.proxy.kill()
		b.proxy = nil
	}
}
