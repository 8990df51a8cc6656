package main

import (
	"bytes"
	"fmt"
	"sort"

	"wedgechain/internal/wire"
)

// model is what the store must hold after the timed phase: the preload,
// overlaid with the last acked value of every key the run wrote.
type model struct {
	preload  [][]byte
	acked    map[int][]byte // key -> value of its last acked write
	written  map[int]bool   // keys any timed-phase write touched
	writtenK []int          // sorted keys of acked writes (ingest scans)
}

// buildModel folds the timed phase's acked writes in issue order. All
// sessions share one connection per edge and the edge's verify pool
// delivers in submission order, so issue order is version order.
func buildModel(in *inputs, timed []rec) *model {
	m := &model{preload: in.preload, acked: map[int][]byte{}, written: map[int]bool{}}
	order := make([]int, 0, len(timed))
	for i := range timed {
		if timed[i].kind == opPut {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return timed[order[a]].sent < timed[order[b]].sent })
	for _, i := range order {
		r := &timed[i]
		m.written[r.key] = true
		if r.p1 != 0 && r.err == nil {
			m.acked[r.key] = r.val
		}
	}
	for k := range m.acked {
		m.writtenK = append(m.writtenK, k)
	}
	sort.Ints(m.writtenK)
	return m
}

// preloaded returns the preload value of key k, or nil when k was never
// preloaded.
func (m *model) preloaded(k int) []byte {
	if k%2 != 0 || k/2 >= len(m.preload) {
		return nil
	}
	return m.preload[k/2]
}

// expect returns key k's expected final value (nil = absent).
func (m *model) expect(k int) []byte {
	if v, ok := m.acked[k]; ok {
		return v
	}
	return m.preloaded(k)
}

// checker collects failed correctness checks; a run with any is not
// correct.
type checker struct {
	failures []string
}

func (c *checker) fail(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	} else if len(c.failures) == 20 {
		c.failures = append(c.failures, "...")
	}
}

func (c *checker) ok() bool { return len(c.failures) == 0 }

// checkGet compares a verified get with an expected value (nil = the
// edge must have proved the key absent).
func (c *checker) checkGet(phase string, r *rec, want []byte) {
	switch {
	case r.err != nil:
		c.fail("%s get %d: %v", phase, r.key, r.err)
	case want == nil && r.found:
		c.fail("%s get %d: found a value for a key never written", phase, r.key)
	case want != nil && !r.found:
		c.fail("%s get %d: verified absent, want a value", phase, r.key)
	case want != nil && !bytes.Equal(r.got, want):
		c.fail("%s get %d: value differs from the model", phase, r.key)
	}
}

// checkScan compares a merged verified scan with the model: the key set
// must be exactly want's, and every key the timed phase did not write
// must carry its model value.
func (c *checker) checkScan(phase string, r *rec, wantKeys []int, m *model, final bool) {
	if r.err != nil {
		c.fail("%s scan [%d,%d): %v", phase, r.key, r.end, r.err)
		return
	}
	if len(r.kvs) != len(wantKeys) {
		c.fail("%s scan [%d,%d): %d rows, model has %d", phase, r.key, r.end, len(r.kvs), len(wantKeys))
		return
	}
	for i, kv := range r.kvs {
		k := wantKeys[i]
		if !bytes.Equal(kv.Key, keyBytes(k)) {
			c.fail("%s scan [%d,%d): row %d is %q, model has %q", phase, r.key, r.end, i, kv.Key, keyBytes(k))
			return
		}
		// Mid-run, a written key may hold any of its versions; after the
		// drain it must hold its last acked one.
		if m.written[k] && (!final || m.acked[k] == nil) {
			continue
		}
		if want := m.expect(k); !bytes.Equal(kv.Value, want) {
			c.fail("%s scan [%d,%d): key %d value differs from the model", phase, r.key, r.end, k)
			return
		}
	}
}

// preloadKeysIn lists the preloaded keys in [lo, hi).
func (m *model) preloadKeysIn(lo, hi int) []int {
	var out []int
	for k := lo + lo%2; k < hi; k += 2 {
		if m.preloaded(k) != nil {
			out = append(out, k)
		}
	}
	return out
}

// ackedKeysIn lists keys with an acked write in [lo, hi).
func (m *model) ackedKeysIn(lo, hi int) []int {
	i := sort.SearchInts(m.writtenK, lo)
	j := sort.SearchInts(m.writtenK, hi)
	return m.writtenK[i:j]
}

// verify runs every correctness check of the arm.
func (a *arm) verify(m *model) *checker {
	c := &checker{}
	// Every Phase I-acked write reached Phase II before the drain ended.
	for _, rs := range append([][]rec{a.preload, a.timed}, a.filler...) {
		for i := range rs {
			r := &rs[i]
			if r.kind != opPut {
				continue
			}
			if r.err != nil {
				c.fail("put %d: %v", r.key, r.err)
			} else if r.p1 == 0 || r.p2 == 0 {
				c.fail("put %d: acked=%v certified=%v after drain", r.key, r.p1 != 0, r.p2 != 0)
			}
		}
	}
	for i := range a.warm {
		r := &a.warm[i]
		c.checkGet("warm-up", r, m.preloaded(r.key))
	}
	// Timed reads of keys the timed phase did not write equal the
	// preload model.
	for i := range a.timed {
		r := &a.timed[i]
		switch r.kind {
		case opGet:
			if !m.written[r.key] {
				c.checkGet("timed", r, m.preloaded(r.key))
			} else if r.err != nil {
				c.fail("timed get %d: %v", r.key, r.err)
			}
		case opScan:
			c.checkScan("timed", r, m.preloadKeysIn(r.key, r.end), m, false)
		}
	}
	// The check phase: read-back of acked writes and model reads.
	for i := range a.check {
		r := &a.check[i]
		switch r.kind {
		case opGet:
			c.checkGet("check", r, m.expect(r.key))
		case opScan:
			want := m.preloadKeysIn(r.key, r.end)
			if len(m.preload) == 0 {
				want = m.ackedKeysIn(r.key, r.end)
			}
			c.checkScan("check", r, want, m, true)
		}
	}
	// Counters that must stay at zero in an honest run.
	zero := func(name string, v float64) {
		if v != 0 {
			c.fail("%s = %v, want 0", name, v)
		}
	}
	d := func(node, name string) float64 {
		id := wire.NodeID(node)
		return a.s3.metrics[id].sum(name, nil) - a.s0.metrics[id].sum(name, nil)
	}
	zero("cloud.disputes", d("cloud", "wedge_disputes_total"))
	zero("cloud.merge_rejects", d("cloud", "wedge_cloud_merge_rejects_total"))
	zero("client.verify_failures", float64(a.s3.core.VerifyFailures))
	zero("client.disputes", float64(a.s3.core.Disputes))
	var drops, shed float64
	for _, id := range nodeIDs {
		drops += d(string(id), "wedge_transport_lane_drops_total")
		shed += d(string(id), "wedge_edge_shed_writes_total")
	}
	zero("transport.lane_drops", drops+float64(a.s3.drops))
	zero("edge.shed_writes", shed)
	return c
}
