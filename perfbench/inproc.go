package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"wedgechain/internal/cloud"
	"wedgechain/internal/core"
	"wedgechain/internal/edge"
	"wedgechain/internal/obs"
	"wedgechain/internal/obs/olog"
	"wedgechain/internal/transport"
	"wedgechain/internal/wcrypto"
	"wedgechain/internal/wire"
)

// span is one Receive or Tick call of a traced node, with the
// correlating ids the message already carries on the wire.
type span struct {
	Node  wire.NodeID `json:"node"`
	Kind  string      `json:"kind"` // message kind, or "Tick"
	Start int64       `json:"start"`
	End   int64       `json:"end"`
	From  wire.NodeID `json:"from,omitempty"`
	// (client, seq) for writes, ReqID for reads and merges.
	Client wire.NodeID `json:"client,omitempty"`
	Seq    uint64      `json:"seq,omitempty"`
	N      int         `json:"n,omitempty"` // writes: entries covered from Seq
	ReqID  uint64      `json:"req,omitempty"`
	// (chain, bid) for certification traffic.
	Chain wire.NodeID `json:"chain,omitempty"`
	BID   uint64      `json:"bid,omitempty"`
	// Acks this call emitted: PutResponses, by recipient and block.
	Acks []ackOut `json:"acks,omitempty"`
}

type ackOut struct {
	To  wire.NodeID `json:"to"`
	BID uint64      `json:"bid"`
}

// tracer wraps a node's Handler and records a span per call. The
// transport serializes a handler's calls under its session mutex, so
// spans needs no lock of its own.
type tracer struct {
	h     core.Handler
	spans []span
}

func (t *tracer) ID() wire.NodeID { return t.h.ID() }

func (t *tracer) Receive(now int64, env wire.Envelope) []wire.Envelope {
	start := time.Now().UnixNano()
	out := t.h.Receive(now, env)
	sp := span{Node: t.h.ID(), Kind: env.Msg.MsgKind().String(), Start: start, End: time.Now().UnixNano(), From: env.From}
	switch m := env.Msg.(type) {
	case *wire.PutBatch:
		sp.Client, sp.N = m.Client, len(m.Entries)
		if sp.N > 0 {
			sp.Seq = m.Entries[0].Seq
		}
	case *wire.PutRequest:
		sp.Client, sp.Seq, sp.N = m.Entry.Client, m.Entry.Seq, 1
	case *wire.GetRequest:
		sp.Client, sp.ReqID = env.From, m.ReqID
	case *wire.ScanRequest:
		sp.Client, sp.ReqID = env.From, m.ReqID
	case *wire.BlockCertify:
		sp.Chain, sp.BID = m.Edge, m.BID
	case *wire.BlockProof:
		sp.Chain, sp.BID = m.Edge, m.BID
	case *wire.MergeRequest:
		sp.Chain, sp.ReqID = m.Edge, m.ReqID
	case *wire.MergeResponse:
		sp.Chain, sp.ReqID = m.Edge, m.ReqID
	}
	sp.Acks = acksIn(out)
	t.spans = append(t.spans, sp)
	return out
}

func (t *tracer) Tick(now int64) []wire.Envelope {
	start := time.Now().UnixNano()
	out := t.h.Tick(now)
	t.spans = append(t.spans, span{Node: t.h.ID(), Kind: "Tick", Start: start, End: time.Now().UnixNano(), Acks: acksIn(out)})
	return out
}

func acksIn(out []wire.Envelope) []ackOut {
	var acks []ackOut
	for _, env := range out {
		if m, ok := env.Msg.(*wire.PutResponse); ok {
			acks = append(acks, ackOut{To: env.To, BID: m.BID})
		}
	}
	return acks
}

// inprocCluster hosts the same cloud.Node and edge.Node state machines
// as the binaries, each behind its own transport.NewTCP endpoint with
// the binaries' default values, and traces every handler call.
type inprocCluster struct {
	lay     *layout
	tracers map[wire.NodeID]*tracer
	ts      map[wire.NodeID]*transport.TCP
	regs    map[wire.NodeID]*obs.Registry
	cancel  context.CancelFunc
	served  []chan error
	stop1   sync.Once
	logs    *os.File
}

func startInprocCluster(lay *layout, logPath string) (*inprocCluster, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	c := &inprocCluster{
		lay: lay, logs: lf,
		tracers: map[wire.NodeID]*tracer{}, ts: map[wire.NodeID]*transport.TCP{}, regs: map[wire.NodeID]*obs.Registry{},
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for _, id := range nodeIDs {
		peers := lay.peers(id)
		reg := wcrypto.NewRegistry()
		key := wcrypto.DeterministicKey(id)
		reg.Register(id, key.Pub)
		for p := range peers {
			reg.Register(p, wcrypto.DeterministicKey(p).Pub)
		}
		metrics := obs.NewRegistry()
		logger := olog.New(lf, olog.LevelInfo)
		var h core.Handler
		if id == cloudID {
			var gossipTo []wire.NodeID
			for p := range peers {
				gossipTo = append(gossipTo, p)
			}
			// cmd/wedge-cloud's flag defaults.
			h = cloud.New(cloud.Config{
				ID: id, Levels: 3, PageCap: 100,
				GossipEvery: int64(time.Second), GossipTo: gossipTo,
				LeaseTimeout: int64(time.Second), CertTimeout: int64(3 * time.Second),
				CertBatch: 1, Logger: logger, Metrics: metrics,
			}, key, reg)
		} else {
			// cmd/wedge-edge's flag defaults.
			h = edge.New(edge.Config{
				ID: id, Cloud: cloudID, BatchSize: 100, FlushEvery: int64(100 * time.Millisecond),
				L0Threshold: 10, LevelThresholds: []int{10, 100, 1000}, CertBatch: 1,
				Logger: logger, Metrics: metrics,
			}, key, reg)
		}
		tr := &tracer{h: h}
		t := transport.NewTCP(tr, transport.TCPConfig{
			Listen: lay.node[id], Peers: peers,
			Registry: reg, VerifyWorkers: -1,
			Obs: metrics, Log: logger,
		})
		if err := t.Listen(); err != nil {
			c.stop()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- t.Serve(ctx) }()
		c.served = append(c.served, served)
		c.tracers[id], c.ts[id], c.regs[id] = tr, t, metrics
	}
	return c, nil
}

// stop shuts every endpoint and waits for them; later calls wait for
// the first.
func (c *inprocCluster) stop() {
	c.stop1.Do(func() {
		c.cancel()
		for _, s := range c.served {
			<-s
		}
		c.logs.Close()
	})
}

func (c *inprocCluster) scrape(context.Context) (map[wire.NodeID]scrape, error) {
	out := map[wire.NodeID]scrape{}
	for id, reg := range c.regs {
		var b bytes.Buffer
		if err := reg.WriteProm(&b); err != nil {
			return nil, err
		}
		sc, err := parseProm(&b)
		if err != nil {
			return nil, err
		}
		out[id] = sc
	}
	return out, nil
}

// takeSpans returns every node's spans, taking each handler's mutex so
// the read is ordered after the last append.
func (c *inprocCluster) takeSpans() []span {
	var all []span
	for _, id := range nodeIDs {
		tr := c.tracers[id]
		c.ts[id].Do(func(int64) []wire.Envelope {
			all = append(all, tr.spans...)
			return nil
		})
	}
	return all
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
