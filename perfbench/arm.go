package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/wire"
)

// cluster is what an arm needs from the nodes under test: /metrics,
// liveness, and teardown.
type cluster interface {
	scrape(ctx context.Context) (map[wire.NodeID]scrape, error)
	alive() error
	stop()
}

func (c *inprocCluster) alive() error { return nil }

// snap is every counter the bench reads at a phase boundary.
type snap struct {
	at      int64
	metrics map[wire.NodeID]scrape
	procs   map[wire.NodeID]procStat // subprocess arm only
	http    map[wire.NodeID]int64    // scrape bytes exchanged per node, subprocess arm only
	self    procStat
	client  clientStats
	core    client.Stats
	frames  uint64 // bench endpoint frames sent
	drops   uint64 // bench endpoint lane drops
}

// arm is one trial: one boot of a cluster driven through the workload.
type arm struct {
	sp     spec
	in     *inputs
	traced bool
	outDir string
	binDir string

	lay *layout // the current boot's address plan
	cl  cluster
	g   *loadgen

	setup float64 // seconds from launching the nodes to ready

	preload    []rec
	filler     [][]rec
	fillerNext []int // next unused filler block per shard
	setupFill  int   // filler entries set-up wrote (inside the preload window)
	warm       []rec
	timed      []rec
	check      []rec
	lags       []float64 // open loop: generator lag per op, ms
	tStart     int64     // first timed op

	// s0: after boot; s1: timed start; s2: after timed phase drained;
	// s3: after the check phase.
	s0, s1, s2, s3 snap

	spans []span
}

// snapshot reads every counter. A window's opening snapshot scrapes
// before reading /proc and its closing one after, so no snapshot's own
// scrape lands inside the window it bounds.
func (a *arm) snapshot(ctx context.Context, opening bool) (snap, error) {
	var s snap
	var err error
	if opening {
		if s.metrics, err = a.cl.scrape(ctx); err != nil {
			return s, err
		}
	}
	s.at = time.Now().UnixNano()
	if pc, ok := a.cl.(*procCluster); ok {
		s.procs = map[wire.NodeID]procStat{}
		s.http = map[wire.NodeID]int64{}
		for _, id := range nodeIDs {
			ps, err := readProcStat(pc.pid(id))
			if err != nil {
				return s, fmt.Errorf("read /proc for %s: %w", id, err)
			}
			s.procs[id] = ps
			s.http[id] = pc.scrapeBytes(id)
		}
	}
	if s.self, err = readProcStat(0); err != nil {
		return s, err
	}
	s.client = a.g.stats()
	s.core = a.g.coreStats()
	s.frames, s.drops = a.g.framesSent(), a.g.laneDrops()
	if !opening {
		s.metrics, err = a.cl.scrape(ctx)
	}
	return s, err
}

// boot starts the bench endpoint and the cluster, preloads and warms up.
// It returns the set-up time: from launching the nodes to ready for the
// first timed op.
func (a *arm) boot(ctx context.Context) error {
	logDir := filepath.Join(a.outDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	lay, err := newLayout(a.sp.Sessions)
	if err != nil {
		return err
	}
	a.lay = lay
	a.filler, a.fillerNext = nil, make([]int, len(edgeIDs))
	// The endpoint listens before any node starts, so no node's first
	// frame to a session finds the port closed.
	if a.g, err = startLoadgen(lay); err != nil {
		return err
	}
	onSignal(a.g.stop)
	t0 := time.Now()
	// Each start stops what it started when it fails, so a.cl is set only
	// to a running cluster.
	if a.traced {
		c, err := startInprocCluster(lay, filepath.Join(logDir, "inproc.log"))
		if err != nil {
			return err
		}
		a.cl = c
		onSignal(c.stop)
	} else {
		c, err := startProcCluster(lay, a.binDir, logDir)
		if err != nil {
			return err
		}
		a.cl = c
		onSignal(c.stop)
	}
	if a.s0, err = a.snapshot(ctx, true); err != nil {
		return err
	}
	if len(a.in.preload) > 0 {
		if err := a.runPreload(); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	for _, rs := range a.filler {
		a.setupFill += len(rs)
	}
	if err := a.runWarmup(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	a.setup = time.Since(t0).Seconds()
	return nil
}

// teardown stops the endpoint and every node; safe to call twice.
func (a *arm) teardown() {
	if a.g != nil {
		a.g.stop()
		a.g = nil
	}
	if a.cl != nil {
		a.cl.stop()
		a.cl = nil
	}
}

func (a *arm) runPreload() error {
	n := len(a.in.preload)
	a.preload = make([]rec, n)
	for j := range a.preload {
		a.preload[j] = rec{kind: opPut, key: preloadKey(j), val: a.in.preload[j]}
	}
	bs := 100
	units := (n + bs - 1) / bs
	err := a.g.closedLoop(units, func(s *session, u int) {
		hi := (u + 1) * bs
		if hi > n {
			hi = n
		}
		a.g.issueBatch(s, a.preload[u*bs:hi])
	})
	if err != nil {
		return err
	}
	if err := a.g.drain(stallLimit); err != nil {
		return err
	}
	if err := a.quiesce(); err != nil {
		return err
	}
	if err := a.settleL0(); err != nil {
		return err
	}
	// Prefilled blocks make the timed phase's writes trigger an L0
	// merge at the same point of every trial.
	for i := 0; i < a.sp.PrefillBlocks; i++ {
		if err := a.fill(func(int) bool { return true }); err != nil {
			return err
		}
	}
	return nil
}

// settleL0 writes full filler blocks to each shard until that shard's
// L0 merges, then waits for the merges to finish, so the next phase
// starts from an empty L0: how many blocks a write phase leaves in L0
// varies from trial to trial, and with it the read evidence size and
// when the next merge happens.
func (a *arm) settleL0() error {
	merges := func() (map[wire.NodeID]float64, error) {
		m, err := a.cl.scrape(context.Background())
		if err != nil {
			return nil, err
		}
		out := map[wire.NodeID]float64{}
		for _, e := range edgeIDs {
			out[e] = m[e].sum("wedge_edge_merges_total", nil)
		}
		return out, nil
	}
	base, err := merges()
	if err != nil {
		return err
	}
	settled := make([]bool, len(edgeIDs))
	for {
		now, err := merges()
		if err != nil {
			return err
		}
		done := true
		for sh, e := range edgeIDs {
			settled[sh] = settled[sh] || now[e] > base[e]
			done = done && settled[sh]
		}
		if done {
			return a.quiesce()
		}
		if err := a.fill(func(sh int) bool { return !settled[sh] }); err != nil {
			return err
		}
	}
}

// fill writes the next filler block to every shard that wants one and
// waits for the blocks to be certified.
func (a *arm) fill(want func(sh int) bool) error {
	var units [][]rec
	for sh := range edgeIDs {
		if !want(sh) {
			continue
		}
		if a.fillerNext[sh] >= len(a.in.filler[sh]) {
			return fmt.Errorf("%s: out of filler blocks", edgeIDs[sh])
		}
		rs := recsOf(a.in.filler[sh][a.fillerNext[sh]])
		a.fillerNext[sh]++
		a.filler = append(a.filler, rs)
		units = append(units, rs)
	}
	if err := a.g.closedLoop(len(units), func(s *session, u int) { a.g.issueBatch(s, units[u]) }); err != nil {
		return err
	}
	return a.g.drain(stallLimit)
}

// quiesce waits until every merge the edges requested has been answered
// by the cloud, so the next phase starts from a settled index.
func (a *arm) quiesce() error {
	deadline := time.Now().Add(stallLimit)
	stable := 0
	last := -1.0
	for stable < 3 {
		m, err := a.cl.scrape(context.Background())
		if err != nil {
			return err
		}
		var asked float64
		for _, e := range edgeIDs {
			asked += m[e].sum("wedge_edge_merges_total", nil)
		}
		answered := m[cloudID].sum("wedge_cloud_merges_total", nil) + m[cloudID].sum("wedge_cloud_merge_rejects_total", nil)
		if asked == answered && asked == last {
			stable++
		} else {
			stable = 0
		}
		last = asked
		if time.Now().After(deadline) {
			return fmt.Errorf("merges did not settle: %v requested, %v answered", asked, answered)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

// warmKeys is the number of verified gets every boot issues before the
// timed phase: they dial every connection and fault in the read path.
const warmKeys = 500

func (a *arm) runWarmup() error {
	a.warm = make([]rec, warmKeys)
	for i := range a.warm {
		k := 2*i + 1 // odd: never preloaded
		if len(a.in.preload) > 0 {
			k = preloadKey(i * len(a.in.preload) / warmKeys)
		}
		a.warm[i] = rec{kind: opGet, key: k}
	}
	err := a.g.closedLoop(len(a.warm), func(s *session, u int) { a.g.issue(s, &a.warm[u], 0) })
	if err != nil {
		return err
	}
	return a.g.drain(stallLimit)
}

// runTimed drives the workload's timed phase and drains it.
func (a *arm) runTimed(ctx context.Context) error {
	var err error
	if a.s1, err = a.snapshot(ctx, true); err != nil {
		return err
	}
	a.tStart = time.Now().UnixNano()
	switch {
	case a.sp.BatchSize > 0:
		nb := len(a.in.batches)
		a.timed = make([]rec, 0, nb*a.sp.BatchSize)
		for _, b := range a.in.batches {
			for _, o := range b {
				a.timed = append(a.timed, rec{kind: opPut, key: o.key, val: o.val})
			}
		}
		bs := a.sp.BatchSize
		err = a.g.closedLoop(nb, func(s *session, u int) { a.g.issueBatch(s, a.timed[u*bs:(u+1)*bs]) })
	case a.sp.Loop == "closed":
		a.timed = recsOf(a.in.ops)
		err = a.g.closedLoop(len(a.timed), func(s *session, u int) { a.g.issue(s, &a.timed[u], 0) })
	default:
		a.timed = recsOf(a.in.ops)
		dues := make([]int64, len(a.in.ops))
		for i, o := range a.in.ops {
			dues[i] = o.due
		}
		a.lags = a.g.openLoop(a.timed, dues)
		err = a.waitPerceived()
	}
	if err != nil {
		return err
	}
	if err := a.g.drain(stallLimit); err != nil {
		return err
	}
	// Merges the timed phase triggered count toward it, and the check
	// phase then reads a settled index.
	if err := a.quiesce(); err != nil {
		return err
	}
	if err := a.cl.alive(); err != nil {
		return err
	}
	a.s2, err = a.snapshot(ctx, false)
	return err
}

// waitPerceived waits until every open-loop op has reached its
// client-perceived end: Phase I for puts, settlement for reads.
func (a *arm) waitPerceived() error {
	deadline := time.Now().Add(stallLimit)
	for {
		pending := 0
		a.g.barrier()
		for _, s := range a.g.sess {
			s := s
			a.g.do(s, func(int64) []wire.Envelope {
				for _, r := range s.ops {
					if r.p1 == 0 && r.err == nil {
						pending++
					}
				}
				pending += len(s.scans)
				return nil
			})
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("open loop: %d ops unsettled after %v", pending, stallLimit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func recsOf(ops []opIn) []rec {
	rs := make([]rec, len(ops))
	for i, o := range ops {
		rs[i] = rec{kind: o.kind, key: o.key, end: o.end, val: o.val}
	}
	return rs
}

// runCheck reads back a seeded sample of acked writes and reads keys
// the timed phase did not write, closed loop over every session, after
// emptying the L0 the timed phase's writes left behind.
func (a *arm) runCheck(ctx context.Context, m *model) error {
	if len(m.written) > 0 {
		if err := a.settleL0(); err != nil {
			return err
		}
	}
	a.check = a.check[:0]
	for _, i := range a.in.readBack {
		a.check = append(a.check, rec{kind: opGet, key: a.timed[i].key})
	}
	for _, o := range a.in.checkGets {
		if !m.written[o.key] {
			a.check = append(a.check, rec{kind: opGet, key: o.key})
		}
	}
	for _, o := range a.in.checkScans {
		a.check = append(a.check, rec{kind: opScan, key: o.key, end: o.end})
	}
	err := a.g.closedLoop(len(a.check), func(s *session, u int) { a.g.issue(s, &a.check[u], 0) })
	if err != nil {
		return err
	}
	if err := a.g.drain(stallLimit); err != nil {
		return err
	}
	a.s3, err = a.snapshot(ctx, false)
	return err
}

// writeOps writes the timed phase's per-op timings (ns from the start of
// the timed phase; 0 = never reached) for offline analysis.
func (a *arm) writeOps(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tkey\tdue\tsent\tphase1\tphase2\tdone\terr")
	rel := func(t int64) int64 {
		if t == 0 {
			return 0
		}
		return t - a.tStart
	}
	for i := range a.timed {
		r := &a.timed[i]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n", r.kind, r.key, rel(r.due), rel(r.sent), rel(r.p1), rel(r.p2), rel(r.done), r.err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
