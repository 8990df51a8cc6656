package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wedgechain/internal/client"
	"wedgechain/internal/shard"
	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// stallLimit fails a phase that makes no progress for this long: an op
// the system lost would otherwise hang the run.
const stallLimit = 30 * time.Second

// rec is one operation's outcome. Every field is written under its
// session's transport mutex.
type rec struct {
	kind opKind
	key  int
	end  int
	val  []byte

	due  int64 // open loop: when the op was due; closed loop: == sent
	sent int64 // submission (the `now` the client call ran at)
	p1   int64 // Phase I callback (puts)
	p2   int64 // Phase II callback (puts)
	done int64 // settled (gets, scans: merged result ready)
	err  error

	found bool
	got   []byte
	kvs   []wire.KV

	// When the client call returned, and the request's correlation id
	// at its edge: the traced run matches them with the edge's spans.
	launched int64
	session  wire.NodeID
	edge     wire.NodeID
	corr     uint64
	bid      uint64 // block a put was acked in
}

// clientStats is what the bench measures around its own client calls.
type clientStats struct {
	launchNs      int64 // inside Put/PutBatch/Get/Scan
	recvNs        int64 // inside Receive
	getRecvNs     int64 // inside Receive of GetResponses
	getResps      int64
	getRespBytes  int64
	scanRespBytes int64
	cloudBytes    int64 // envelopes exchanged with the cloud, framed
}

func (a clientStats) minus(b clientStats) clientStats {
	return clientStats{
		launchNs: a.launchNs - b.launchNs, recvNs: a.recvNs - b.recvNs, getRecvNs: a.getRecvNs - b.getRecvNs,
		getResps: a.getResps - b.getResps, getRespBytes: a.getRespBytes - b.getRespBytes,
		scanRespBytes: a.scanRespBytes - b.scanRespBytes, cloudBytes: a.cloudBytes - b.cloudBytes,
	}
}

func (a *clientStats) add(b clientStats) {
	a.launchNs += b.launchNs
	a.recvNs += b.recvNs
	a.getRecvNs += b.getRecvNs
	a.getResps += b.getResps
	a.getRespBytes += b.getRespBytes
	a.scanRespBytes += b.scanRespBytes
	a.cloudBytes += b.cloudBytes
}

// session is one client.Sharded hosted on the bench endpoint. It wraps
// the handler so the bench times Receive from outside the client.
type session struct {
	idx   int
	sh    *client.Sharded
	g     *loadgen
	ops   map[*client.Op]*rec
	scans map[*client.Op]*scanGather
	unit  int        // closed loop: ops of the current unit not yet complete
	free  chan<- int // closed loop: receives idx when the unit completes
	st    clientStats
}

type scanGather struct {
	r    *rec
	ops  []*client.Op
	left int
}

func (s *session) ID() wire.NodeID { return s.sh.ID() }

func (s *session) Tick(now int64) []wire.Envelope { return s.sh.Tick(now) }

func (s *session) Receive(now int64, env wire.Envelope) []wire.Envelope {
	t0 := time.Now()
	out := s.sh.Receive(now, env)
	d := time.Since(t0).Nanoseconds()
	s.st.recvNs += d
	switch env.Msg.(type) {
	case *wire.GetResponse:
		s.st.getRecvNs += d
		s.st.getResps++
		s.st.getRespBytes += int64(wire.EncodedSize(env))
	case *wire.ScanResponse:
		s.st.scanRespBytes += int64(wire.EncodedSize(env))
	}
	if env.From == cloudID {
		s.st.cloudBytes += int64(wire.EncodedSize(env)) + 4
	}
	return out
}

func (s *session) onPhaseI(op *client.Op) {
	r := s.ops[op]
	if r == nil || r.p1 != 0 {
		return
	}
	r.p1 = time.Now().UnixNano()
	r.bid = op.BID
	s.unitStep()
}

func (s *session) onPhaseII(op *client.Op) {
	if r := s.ops[op]; r != nil && r.p2 == 0 {
		r.p2 = time.Now().UnixNano()
	}
}

func (s *session) onDone(op *client.Op) {
	now := time.Now().UnixNano()
	if sg := s.scans[op]; sg != nil {
		delete(s.scans, op)
		if op.Err != nil && sg.r.err == nil {
			sg.r.err = op.Err
		}
		if sg.left--; sg.left > 0 {
			return
		}
		sg.r.done = now
		if sg.r.err == nil {
			sg.r.kvs = client.MergeScanResults(sg.ops, 0)
		}
		s.g.readsDone.Add(1)
		s.unitStep()
		return
	}
	r := s.ops[op]
	if r == nil {
		return
	}
	delete(s.ops, op)
	r.done = now
	r.err = op.Err
	switch r.kind {
	case opPut:
		if r.p1 == 0 { // failed before its ack
			s.unitStep()
		}
		s.g.putsSettled.Add(1)
	case opGet:
		r.found = op.Found
		r.got = op.GotValue
		s.g.readsDone.Add(1)
		s.unitStep()
	}
}

func (s *session) unitStep() {
	if s.free == nil || s.unit == 0 {
		return
	}
	if s.unit--; s.unit == 0 {
		s.free <- s.idx // never blocks: one token per session, capacity = sessions
	}
}

// loadgen hosts every client session on one transport.NewTCP endpoint,
// wired like cmd/wedge-client (default client.Config, full verification,
// no verify pool), and issues all operations from one goroutine.
type loadgen struct {
	t      *transport.TCP
	sess   []*session
	cancel context.CancelFunc
	served chan error
	stop1  sync.Once

	putsIssued  atomic.Int64
	putsSettled atomic.Int64
	readsIssued atomic.Int64
	readsDone   atomic.Int64
}

func startLoadgen(lay *layout) (*loadgen, error) {
	ring, err := shard.New(edgeIDs)
	if err != nil {
		return nil, err
	}
	peers := map[wire.NodeID]string{}
	reg := wcrypto.NewRegistry()
	for id, a := range lay.node {
		peers[id] = a
		reg.Register(id, wcrypto.DeterministicKey(id).Pub)
	}
	g := &loadgen{served: make(chan error, 1)}
	for i := 0; i < lay.nsess; i++ {
		id := sessionID(i)
		key := wcrypto.DeterministicKey(id)
		reg.Register(id, key.Pub)
		s := &session{
			idx: i, g: g,
			sh:    client.NewSharded(client.Config{ID: id, Cloud: cloudID}, ring, key, reg),
			ops:   map[*client.Op]*rec{},
			scans: map[*client.Op]*scanGather{},
		}
		for _, c := range s.sh.Cores() {
			c.OnPhaseI, c.OnPhaseII, c.OnDone = s.onPhaseI, s.onPhaseII, s.onDone
		}
		g.sess = append(g.sess, s)
	}
	g.t = transport.NewTCP(g.sess[0], transport.TCPConfig{Listen: lay.bench, Peers: peers})
	for _, s := range g.sess[1:] {
		g.t.AddSession(s)
	}
	if err := g.t.Listen(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	go func() { g.served <- g.t.Serve(ctx) }()
	return g, nil
}

// stop shuts the endpoint and waits for Serve to return; a signal may
// call it a second time.
func (g *loadgen) stop() {
	g.stop1.Do(func() {
		g.cancel()
		<-g.served
	})
}

// do runs fn under session s's mutex and sends what it returns.
func (g *loadgen) do(s *session, fn func(now int64) []wire.Envelope) {
	g.t.DoSession(s.ID(), fn)
}

// issue submits one op (a single put, get or scan) on session s.
func (g *loadgen) issue(s *session, r *rec, due int64) {
	g.do(s, func(now int64) []wire.Envelope {
		r.sent, r.due, r.session = now, due, s.ID()
		if due == 0 {
			r.due = now
		}
		var envs []wire.Envelope
		t0 := time.Now()
		switch r.kind {
		case opPut:
			var op *client.Op
			op, envs = s.sh.Put(now, keyBytes(r.key), r.val)
			s.ops[op] = r
			r.edge, r.corr = op.Edge, op.Seq
			g.putsIssued.Add(1)
		case opGet:
			var op *client.Op
			op, envs = s.sh.Get(now, keyBytes(r.key))
			s.ops[op] = r
			r.edge, r.corr = op.Edge, op.ReqID
			g.readsIssued.Add(1)
		case opScan:
			ops, e := s.sh.Scan(now, keyBytes(r.key), keyBytes(r.end), 0)
			envs = e
			sg := &scanGather{r: r, ops: ops, left: len(ops)}
			for _, op := range ops {
				s.scans[op] = sg
			}
			g.readsIssued.Add(1)
		}
		t1 := time.Now()
		s.st.launchNs += t1.Sub(t0).Nanoseconds()
		r.launched = t1.UnixNano()
		s.unit = 1
		return envs
	})
}

// issueBatch submits one session-signed PutBatch; rs are its entries.
func (g *loadgen) issueBatch(s *session, rs []rec) {
	keys := make([][]byte, len(rs))
	vals := make([][]byte, len(rs))
	for i := range rs {
		keys[i], vals[i] = keyBytes(rs[i].key), rs[i].val
	}
	g.do(s, func(now int64) []wire.Envelope {
		t0 := time.Now()
		ops, envs := s.sh.PutBatch(now, keys, vals)
		t1 := time.Now()
		s.st.launchNs += t1.Sub(t0).Nanoseconds()
		for i, op := range ops {
			r := &rs[i]
			r.sent, r.due, r.launched, r.session = now, now, t1.UnixNano(), s.ID()
			r.edge, r.corr = op.Edge, op.Seq
			s.ops[op] = r
		}
		g.putsIssued.Add(int64(len(ops)))
		s.unit = len(ops)
		return envs
	})
}

// closedLoop keeps one unit in flight per session until units have been
// issued, then waits for the last of them.
func (g *loadgen) closedLoop(units int, issue func(s *session, u int)) error {
	free := make(chan int, len(g.sess))
	for _, s := range g.sess {
		s := s
		g.do(s, func(int64) []wire.Envelope { s.free, s.unit = free, 0; return nil })
		free <- s.idx
	}
	defer func() {
		for _, s := range g.sess {
			s := s
			g.do(s, func(int64) []wire.Envelope { s.free = nil; return nil })
		}
	}()
	timer := time.NewTimer(stallLimit)
	defer timer.Stop()
	next := func() (int, error) {
		timer.Reset(stallLimit)
		select {
		case i := <-free:
			return i, nil
		case <-timer.C:
			return 0, errors.New("closed loop stalled: no op completed for " + stallLimit.String())
		}
	}
	for u := 0; u < units; u++ {
		i, err := next()
		if err != nil {
			return err
		}
		issue(g.sess[i], u)
	}
	for range g.sess {
		if _, err := next(); err != nil {
			return err
		}
	}
	return nil
}

// openLoop issues rs on their seeded schedule, round-robin over the
// sessions, without waiting for completions. It returns each op's lag
// behind its due time in ms.
func (g *loadgen) openLoop(rs []rec, dues []int64) []float64 {
	lags := make([]float64, len(rs))
	start := time.Now().UnixNano()
	for i := range rs {
		due := start + dues[i]
		if d := due - time.Now().UnixNano(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		s := g.sess[i%len(g.sess)]
		g.issue(s, &rs[i], due)
		lags[i] = float64(rs[i].sent-due) / 1e6
	}
	return lags
}

// drain waits until every issued put has reached Phase II (or failed)
// and every read has settled.
func (g *loadgen) drain(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if g.putsSettled.Load() == g.putsIssued.Load() && g.readsDone.Load() == g.readsIssued.Load() {
			g.barrier()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d/%d puts certified, %d/%d reads settled after %v",
				g.putsSettled.Load(), g.putsIssued.Load(), g.readsDone.Load(), g.readsIssued.Load(), limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// barrier takes every session's mutex once, ordering all writes the
// sessions made to records before the caller reads them.
func (g *loadgen) barrier() {
	for _, s := range g.sess {
		g.do(s, func(int64) []wire.Envelope { return nil })
	}
}

// stats sums the bench's client-side measurements over all sessions.
func (g *loadgen) stats() clientStats {
	var t clientStats
	for _, s := range g.sess {
		s := s
		g.do(s, func(int64) []wire.Envelope { t.add(s.st); return nil })
	}
	return t
}

// coreStats sums the client cores' own counters over every session and
// shard.
func (g *loadgen) coreStats() client.Stats {
	var t client.Stats
	for _, s := range g.sess {
		for _, st := range s.sh.StatsByEdge() {
			t.VerifyFailures += st.VerifyFailures
			t.Retries += st.Retries
			t.Resends += st.Resends
			t.Disputes += st.Disputes
		}
	}
	return t
}

// framesSent is the bench endpoint's sent-frame counter.
func (g *loadgen) framesSent() uint64 { return g.t.Stats().FramesSent }

func (g *loadgen) laneDrops() uint64 { return g.t.Stats().LaneDrops }
