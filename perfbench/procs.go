package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wedgechain/internal/wire"
)

const (
	cloudID = wire.NodeID("cloud")
	edge1   = wire.NodeID("edge-1")
	edge2   = wire.NodeID("edge-2")
)

var edgeIDs = []wire.NodeID{edge1, edge2}

// nodeIDs lists the cluster's nodes in report order.
var nodeIDs = []wire.NodeID{cloudID, edge1, edge2}

// sessionID names the bench's i-th client session.
func sessionID(i int) wire.NodeID { return wire.NodeID(fmt.Sprintf("bench.s%02d", i)) }

// freePorts reserves n distinct loopback ports by binding them all at
// once, then releases them for the child processes to bind.
func freePorts(n int) ([]int, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func addr(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }

// layout is the address plan of one cluster: every node's protocol and
// metrics address and the bench endpoint every session shares.
type layout struct {
	node    map[wire.NodeID]string
	metrics map[wire.NodeID]string
	bench   string
	nsess   int
}

func newLayout(nsess int) (*layout, error) {
	ports, err := freePorts(2*len(nodeIDs) + 1)
	if err != nil {
		return nil, err
	}
	l := &layout{node: map[wire.NodeID]string{}, metrics: map[wire.NodeID]string{}, nsess: nsess}
	for i, id := range nodeIDs {
		l.node[id] = addr(ports[2*i])
		l.metrics[id] = addr(ports[2*i+1])
	}
	l.bench = addr(ports[len(ports)-1])
	return l, nil
}

// peers is the peer map as a node other than self sees it: every other
// node plus every bench session, all sessions at the bench's address.
func (l *layout) peers(self wire.NodeID) map[wire.NodeID]string {
	m := map[wire.NodeID]string{}
	for id, a := range l.node {
		if id != self {
			m[id] = a
		}
	}
	for i := 0; i < l.nsess; i++ {
		m[sessionID(i)] = l.bench
	}
	return m
}

func peerFlag(m map[wire.NodeID]string) string {
	parts := make([]string, 0, len(m))
	for id, a := range m {
		parts = append(parts, string(id)+"="+a)
	}
	return strings.Join(parts, ",")
}

// proc is one node subprocess.
type proc struct {
	id   wire.NodeID
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	log  *os.File
}

// procCluster is wedge-cloud plus two wedge-edge shards running the
// shipped binaries with their default flags: only ids, addresses, peers
// and -metrics-addr are set.
type procCluster struct {
	lay   *layout
	procs []*proc
	stop1 sync.Once
	http  *http.Client
	// httpBytes counts the bytes of every scrape exchanged with each
	// node, so socket I/O read from /proc can exclude them.
	httpBytes map[string]*atomic.Int64 // by metrics address
}

// countingConn counts the bytes read and written on a connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

func startProcCluster(lay *layout, binDir, logDir string) (*procCluster, error) {
	c := &procCluster{lay: lay, httpBytes: map[string]*atomic.Int64{}}
	for _, id := range nodeIDs {
		c.httpBytes[lay.metrics[id]] = new(atomic.Int64)
	}
	var d net.Dialer
	c.http = &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
				conn, err := d.DialContext(ctx, network, address)
				if err != nil {
					return nil, err
				}
				return countingConn{conn, c.httpBytes[address]}, nil
			},
			// One scraper, three nodes: keep-alive stops each scrape from
			// costing a new connection.
			MaxIdleConnsPerHost: 1,
		},
	}
	for _, id := range nodeIDs {
		bin, args := "wedge-edge", []string{"-id", string(id)}
		if id == cloudID {
			bin, args = "wedge-cloud", nil
		}
		args = append(args,
			"-listen", lay.node[id],
			"-peers", peerFlag(lay.peers(id)),
			"-metrics-addr", lay.metrics[id])
		if err := c.spawn(id, filepath.Join(binDir, bin), logDir, args); err != nil {
			c.stop()
			return nil, err
		}
	}
	if err := c.waitHealthy(20 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *procCluster) spawn(id wire.NodeID, bin, logDir string, args []string) error {
	lf, err := os.Create(filepath.Join(logDir, string(id)+".log"))
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The kernel kills the node if the bench dies without cleaning up,
	// so no exit path of the bench can leak a node or its ports.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return fmt.Errorf("start %s: %w", id, err)
	}
	p := &proc{id: id, cmd: cmd, done: make(chan struct{}), log: lf}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	c.procs = append(c.procs, p)
	return nil
}

func (c *procCluster) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, p := range c.procs {
		for {
			select {
			case <-p.done:
				return fmt.Errorf("%s exited during start-up (see %s)", p.id, p.log.Name())
			default:
			}
			resp, err := c.http.Get("http://" + c.lay.metrics[p.id] + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not healthy after %v", p.id, limit)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stop sends SIGTERM (the binaries' orderly shutdown), escalates to
// SIGKILL after two seconds, and returns once every process has been
// reaped. Later calls wait for the first.
func (c *procCluster) stop() {
	c.stop1.Do(func() {
		for _, p := range c.procs {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range c.procs {
			select {
			case <-p.done:
			case <-time.After(2 * time.Second):
				p.cmd.Process.Kill()
				<-p.done
			}
			p.log.Close()
		}
		c.http.CloseIdleConnections()
	})
}

// alive reports a node that exited while it should be serving.
func (c *procCluster) alive() error {
	for _, p := range c.procs {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited mid-run (see %s)", p.id, p.log.Name())
		default:
		}
	}
	return nil
}

func (c *procCluster) pid(id wire.NodeID) int {
	for _, p := range c.procs {
		if p.id == id {
			return p.cmd.Process.Pid
		}
	}
	return 0
}

// scrapeBytes is the HTTP traffic exchanged with a node's metrics port.
func (c *procCluster) scrapeBytes(id wire.NodeID) int64 { return c.httpBytes[c.lay.metrics[id]].Load() }

// scrape fetches and parses every node's /metrics.
func (c *procCluster) scrape(ctx context.Context) (map[wire.NodeID]scrape, error) {
	out := map[wire.NodeID]scrape{}
	for _, id := range nodeIDs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+c.lay.metrics[id]+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", id, err)
		}
		sc, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", id, err)
		}
		out[id] = sc
	}
	return out, nil
}

// procStat is one process's counters from /proc.
type procStat struct {
	cpu   time.Duration // user + system
	rchar int64         // bytes returned by read syscalls (sockets included)
	wchar int64
	hwmKB int64 // VmHWM: peak resident set
}

const clockTick = 100 // USER_HZ; Linux fixes it at 100 for /proc

func readProcStat(pid int) (procStat, error) {
	var ps procStat
	dir := "/proc/" + strconv.Itoa(pid)
	if pid == 0 {
		dir = "/proc/self"
	}
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rp := strings.LastIndexByte(string(b), ')')
	if rp < 0 {
		return ps, errors.New("malformed stat")
	}
	f := strings.Fields(string(b[rp+1:]))
	if len(f) < 13 {
		return ps, errors.New("malformed stat")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.cpu = time.Duration(ut+st) * time.Second / time.Duration(clockTick)

	if err := scanKV(dir+"/io", func(k, v string) {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "rchar":
			ps.rchar = n
		case "wchar":
			ps.wchar = n
		}
	}); err != nil {
		return ps, err
	}
	err = scanKV(dir+"/status", func(k, v string) {
		if k == "VmHWM" {
			ps.hwmKB, _ = strconv.ParseInt(strings.Fields(v)[0], 10, 64)
		}
	})
	return ps, err
}

func scanKV(path string, fn func(k, v string)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok {
			fn(strings.TrimSpace(k), strings.TrimSpace(v))
		}
	}
	return sc.Err()
}
