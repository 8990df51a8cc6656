package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"wedgechain/internal/wire"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// window is a span of the run between two snapshots, with the records
// of the operations that ran in it.
type window struct {
	phase    string // "timed", "preload" or "check"
	from, to snap
	recs     []rec
}

func (w window) delta(node wire.NodeID, name string, labels map[string]string) float64 {
	return w.to.metrics[node].sum(name, labels) - w.from.metrics[node].sum(name, labels)
}

func (w window) deltaEdges(name string) float64 {
	var t float64
	for _, e := range edgeIDs {
		t += w.delta(e, name, nil)
	}
	return t
}

func (w window) hist(nodes []wire.NodeID, name string, labels map[string]string) hist {
	var out hist
	for _, n := range nodes {
		h := w.to.metrics[n].histogram(name, labels).minus(w.from.metrics[n].histogram(name, labels))
		if out.le == nil {
			out = h
			continue
		}
		for i := range out.cum {
			out.cum[i] += h.cum[i]
		}
		out.sum += h.sum
	}
	return out
}

func (w window) cpu(id wire.NodeID) float64 {
	return (w.to.procs[id].cpu - w.from.procs[id].cpu).Seconds() * 1e6
}

func (w window) selfCPU() float64 { return (w.to.self.cpu - w.from.self.cpu).Seconds() * 1e6 }

func (w window) client() clientStats { return w.to.client.minus(w.from.client) }

func ofKind(rs []rec, k opKind) []rec {
	var out []rec
	for i := range rs {
		if rs[i].kind == k {
			out = append(out, rs[i])
		}
	}
	return out
}

// windowFor picks where an op kind is measured: the timed phase when it
// runs that kind, else the phase of the run that does (preload for
// puts, the check phase for reads), so every metric exists on every
// workload.
func (a *arm) windowFor(k opKind) window {
	if rs := ofKind(a.timed, k); len(rs) > 0 {
		return window{"timed", a.s1, a.s2, rs}
	}
	if k == opPut {
		return window{"preload", a.s0, a.s1, a.preload}
	}
	return window{"check", a.s2, a.s3, ofKind(a.check, k)}
}

// ackedIn counts the entries acked in a put window, for per-put byte
// ratios: the window's records, plus, in the preload window, the filler
// blocks set-up wrote, whose bytes its counters include.
func (a *arm) ackedIn(w window) float64 {
	n := len(latencies(w.recs, ackedAt))
	if w.phase == "preload" {
		n += a.setupFill
	}
	return float64(n)
}

func latencies(rs []rec, f func(*rec) (float64, bool)) []float64 {
	var xs []float64
	for i := range rs {
		if v, ok := f(&rs[i]); ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func ackMs(r *rec) (float64, bool) { return float64(r.p1-r.due) / 1e6, r.p1 != 0 && r.err == nil }
func lagMs(r *rec) (float64, bool) {
	return float64(r.p2-r.p1) / 1e6, r.p1 != 0 && r.p2 != 0 && r.err == nil
}
func readMs(r *rec) (float64, bool)  { return float64(r.done-r.due) / 1e6, r.done != 0 && r.err == nil }
func issued(r *rec) (float64, bool)  { return float64(r.sent), true }
func ackedAt(r *rec) (float64, bool) { return float64(r.p1), r.p1 != 0 && r.err == nil }
func doneAt(r *rec) (float64, bool)  { return float64(r.done), r.done != 0 && r.err == nil }

// rate is completions per second over [first issue, last completion].
func rate(rs []rec, end func(*rec) (float64, bool)) float64 {
	starts := latencies(rs, issued)
	ends := latencies(rs, end)
	if len(ends) == 0 {
		return 0
	}
	sort.Float64s(starts)
	sort.Float64s(ends)
	return float64(len(ends)) / ((ends[len(ends)-1] - starts[0]) / 1e9)
}

// timings are one trial's latency samples by metric (ms, issue order),
// with the phase each kind was measured in.
type timings struct {
	putAck, trustLag, get, scan []float64
	putSrc, getSrc, scanSrc     string
	putRate, getRate            float64
}

func (a *arm) timings() timings {
	pw, gw, sw := a.windowFor(opPut), a.windowFor(opGet), a.windowFor(opScan)
	puts, gets, scans := ofKind(pw.recs, opPut), ofKind(gw.recs, opGet), ofKind(sw.recs, opScan)
	return timings{
		putAck:   latencies(puts, ackMs),
		trustLag: latencies(puts, lagMs),
		get:      latencies(gets, readMs),
		scan:     latencies(scans, readMs),
		putSrc:   pw.phase, getSrc: gw.phase, scanSrc: sw.phase,
		putRate: rate(puts, ackedAt), getRate: rate(gets, doneAt),
	}
}

// setTimings sets the latency metrics from per-trial samples.
func (m metrics) setTimings(trials []timings) (counts map[string]int) {
	counts = map[string]int{}
	for _, k := range []struct {
		name string
		of   func(t timings) []float64
	}{
		{"put_ack", func(t timings) []float64 { return t.putAck }},
		{"trust_lag", func(t timings) []float64 { return t.trustLag }},
		{"get", func(t timings) []float64 { return t.get }},
		{"scan", func(t timings) []float64 { return t.scan }},
	} {
		xs := make([][]float64, len(trials))
		for i, t := range trials {
			xs[i] = k.of(t)
		}
		s := acrossTrials(xs)
		m.set(k.name+"_p50_ms", "ms", s.P50)
		m.set(k.name+"_p99_ms", "ms", s.P99)
		counts[k.name] = s.N
	}
	return counts
}

// outcome counts the timed phase: attempted ops, failed ops (error or
// never completed) and, on the open loop, ops over their latency limit.
type outcome struct{ attempted, failed, sloMissed int }

func (a *arm) outcome() outcome {
	var o outcome
	for i := range a.timed {
		r := &a.timed[i]
		o.attempted++
		var lat float64
		var ok bool
		var limit float64
		switch r.kind {
		case opPut:
			lat, ok = ackMs(r)
			limit = a.sp.PutLimitMs
		case opGet:
			lat, ok = readMs(r)
			limit = a.sp.GetLimitMs
		case opScan:
			lat, ok = readMs(r)
			limit = a.sp.ScanLimitMs
		}
		switch {
		case !ok:
			o.failed++
		case limit > 0 && lat > limit:
			o.sloMissed++
		}
	}
	return o
}

// endToEnd computes the end-to-end metrics of the untraced arm.
func (a *arm) endToEnd() metrics {
	m := metrics{}
	t := a.timings()
	m.setTimings([]timings{t})
	m.set("setup_s", "s", a.setup)
	m.set("put_entries_per_s", "1/s", t.putRate)
	m.set("gets_per_s", "1/s", t.getRate)

	pw := a.windowFor(opPut)
	acked := a.ackedIn(pw)
	// The cloud's socket I/O, less what it exchanged with the bench:
	// protocol frames (gossip) and /metrics scrapes.
	cloudIO := pw.to.procs[cloudID].rchar - pw.from.procs[cloudID].rchar +
		pw.to.procs[cloudID].wchar - pw.from.procs[cloudID].wchar -
		(pw.to.http[cloudID] - pw.from.http[cloudID]) - pw.client().cloudBytes
	m.set("cloud_bytes_per_put", "B", ratio(float64(cloudIO), acked))

	tw := window{"timed", a.s1, a.s2, a.timed}
	cpu := tw.selfCPU()
	var rss float64
	for _, id := range nodeIDs {
		cpu += tw.cpu(id)
		rss += float64(a.s2.procs[id].hwmKB) / 1024
	}
	o := a.outcome()
	m.set("cpu_us_per_op", "us", ratio(cpu, float64(o.attempted-o.failed)))
	m.set("peak_rss_mb", "MB", rss)
	m.set("ok_ratio", "1", ratio(float64(o.attempted-o.failed-o.sloMissed), float64(o.attempted)))
	return m
}

// perLayer computes the layer metrics the untraced arm can see from
// outside the nodes: /proc, /metrics and the bench's own client calls.
func (a *arm) perLayer() metrics {
	m := metrics{}
	tw := window{"timed", a.s1, a.s2, a.timed}
	all := window{"run", a.s0, a.s3, nil}
	pw, gw, sw := a.windowFor(opPut), a.windowFor(opGet), a.windowFor(opScan)
	o := a.outcome()
	ops := float64(o.attempted - o.failed)

	c := tw.client()
	m.set("client.launch_us_per_op", "us", ratio(float64(c.launchNs)/1e3, ops))
	m.set("client.receive_us_per_op", "us", ratio(float64(c.recvNs)/1e3, ops))
	gc := gw.client()
	m.set("client.verify_us_per_get", "us", ratio(float64(gc.getRecvNs)/1e3, float64(gc.getResps)))
	m.set("client.verify_failures", "count", float64(a.s3.core.VerifyFailures))
	m.set("client.retries", "count", float64(a.s3.core.Retries))
	m.set("client.resends", "count", float64(a.s3.core.Resends))
	m.set("wire.get_response_bytes", "B", ratio(float64(gc.getRespBytes), float64(gc.getResps)))
	m.set("wire.scan_response_bytes", "B", ratio(float64(sw.client().scanRespBytes), float64(len(ofKind(sw.recs, opScan)))))

	for _, id := range nodeIDs {
		frames := tw.delta(id, "wedge_transport_frames_sent_total", nil)
		m.set("transport.frames_per_op."+string(id), "count", ratio(frames, ops))
		m.set("transport.lane_drops."+string(id), "count", all.delta(id, "wedge_transport_lane_drops_total", nil))
	}
	m.set("transport.frames_per_op.bench", "count", ratio(float64(a.s2.frames-a.s1.frames), ops))
	m.set("transport.lane_drops.bench", "count", float64(a.s3.drops))

	edgeCPU := tw.cpu(edge1) + tw.cpu(edge2)
	m.set("edge.cpu_us_per_op", "us", ratio(edgeCPU, ops))
	m.set("edge.entries_per_block", "count", pw.hist(edgeIDs, "wedge_edge_block_entries", nil).mean())
	m.set("edge.serve_get_p50_us", "us", gw.hist(edgeIDs, "wedge_edge_serve_get_seconds", nil).quantile(0.5)*1e6)
	m.set("edge.serve_scan_p50_us", "us", sw.hist(edgeIDs, "wedge_edge_serve_scan_seconds", nil).quantile(0.5)*1e6)
	acked := a.ackedIn(pw)
	m.set("edge.merges", "count", pw.deltaEdges("wedge_edge_merges_total"))
	m.set("edge.cloud_bytes", "B/put", ratio(pw.deltaEdges("wedge_edge_cloud_bytes_total"), acked))
	m.set("edge.trust_lag_p50_ms", "ms",
		pw.hist(edgeIDs, "wedge_trust_lag_seconds", map[string]string{"stage": "edge"}).quantile(0.5)*1e3)
	m.set("edge.shed_writes", "count", all.deltaEdges("wedge_edge_shed_writes_total"))
	m.set("edge.cert_retries", "count", all.deltaEdges("wedge_edge_cert_retries_total"))

	m.set("cloud.cpu_us_per_op", "us", ratio(tw.cpu(cloudID), ops))
	m.set("cloud.certify_p50_us", "us", pw.hist([]wire.NodeID{cloudID}, "wedge_certify_seconds", nil).quantile(0.5)*1e6)
	m.set("cloud.signs_per_certify", "count", ratio(pw.delta(cloudID, "wedge_cloud_proof_signs_total", nil), pw.delta(cloudID, "wedge_certifies_total", nil)))
	m.set("cloud.merges", "count", pw.delta(cloudID, "wedge_cloud_merges_total", nil))
	m.set("cloud.merge_rejects", "count", all.delta(cloudID, "wedge_cloud_merge_rejects_total", nil))
	m.set("cloud.disputes", "count", all.delta(cloudID, "wedge_disputes_total", nil))
	m.set("cloud.edge_bytes", "B/put", ratio(pw.delta(cloudID, "wedge_cloud_edge_bytes_total", nil), acked))

	for _, id := range nodeIDs {
		m.set("proc.rss_mb."+string(id), "MB", float64(a.s2.procs[id].hwmKB)/1024)
	}
	m.set("bench.cpu_us_per_op", "us", ratio(tw.selfCPU(), ops))
	lag := 0.0
	if len(a.lags) > 0 {
		lag = percentile(append([]float64(nil), a.lags...), 0.99)
	}
	m.set("bench.gen_lag_p99_ms", "ms", lag)
	return m
}

// headline is the latency trace.overhead_pct compares between the
// untraced and traced arms: the workload's dominant operation.
func (sp spec) headline(t timings) float64 {
	if sp.Name == "ingest" {
		return summarize(t.putAck).P50
	}
	return summarize(t.get).P50
}

// budgetRow is one stage of a latency budget: the median over the ops
// the traced run could correlate.
type budgetRow struct {
	Stage string  `json:"stage"`
	P50us float64 `json:"p50_us"`
	N     int     `json:"n"`
}

type budget struct {
	Name       string      `json:"name"`
	Rows       []budgetRow `json:"rows"`
	EndToEndUs float64     `json:"end_to_end_p50_us"`
	ResidualUs float64     `json:"residual_us"`
}

const stageWait = "transport wait"

// set records the budget as per-layer metrics named prefix.<stage>_us.
func (b budget) set(m metrics, prefix string) {
	for _, r := range b.Rows {
		m.set(prefix+strings.ReplaceAll(strings.ReplaceAll(r.Stage, " ", "_"), ".", "")+"_us", "us", r.P50us)
	}
	m.set(prefix+"residual_us", "us", b.ResidualUs)
}

func (b budget) stage(name string) float64 {
	for _, r := range b.Rows {
		if r.Stage == name {
			return r.P50us
		}
	}
	return math.NaN()
}

type spanKey struct {
	node   wire.NodeID
	client wire.NodeID
	id     uint64
}

// budgets correlates the traced arm's client records with the node
// spans by the ids already on the wire, and splits the put (Phase I)
// and get latencies into stages.
func (a *arm) budgets() (put, get budget) {
	writes := map[spanKey]*span{}
	reads := map[spanKey]*span{}
	acks := map[spanKey]*span{} // (edge, client, bid) -> span that emitted the ack
	for i := range a.spans {
		sp := &a.spans[i]
		switch sp.Kind {
		case "PutBatch", "PutRequest":
			for s := uint64(0); s < uint64(sp.N); s++ {
				writes[spanKey{sp.Node, sp.Client, sp.Seq + s}] = sp
			}
		case "GetRequest":
			reads[spanKey{sp.Node, sp.Client, sp.ReqID}] = sp
		}
		for _, ak := range sp.Acks {
			k := spanKey{sp.Node, ak.To, ak.BID}
			if _, seen := acks[k]; !seen {
				acks[k] = sp
			}
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	finish := func(b *budget, rows [][]float64, names []string, e2e []float64) {
		for i, xs := range rows {
			b.Rows = append(b.Rows, budgetRow{Stage: names[i], P50us: percentile(xs, 0.5), N: len(xs)})
		}
		b.EndToEndUs = percentile(e2e, 0.5)
		b.ResidualUs = b.EndToEndUs
		for _, r := range b.Rows {
			b.ResidualUs -= r.P50us
		}
	}

	pw := a.windowFor(opPut)
	names := []string{"client launch", stageWait, "edge self", "edge wait for cut", "return trip to ack"}
	rows := make([][]float64, len(names))
	var e2e []float64
	for _, r := range ofKind(pw.recs, opPut) {
		in := writes[spanKey{r.edge, r.session, r.corr}]
		ack := acks[spanKey{r.edge, r.session, r.bid}]
		if in == nil || ack == nil || r.p1 == 0 {
			continue
		}
		rows[0] = append(rows[0], us(r.launched-r.sent))
		rows[1] = append(rows[1], us(in.Start-r.launched))
		rows[2] = append(rows[2], us(in.End-in.Start))
		rows[3] = append(rows[3], us(ack.End-in.End))
		rows[4] = append(rows[4], us(r.p1-ack.End))
		e2e = append(e2e, us(r.p1-r.sent))
	}
	put.Name = "Phase I ack (" + pw.phase + ")"
	finish(&put, rows, names, e2e)

	gw := a.windowFor(opGet)
	names = []string{"client launch", stageWait, "edge self", "return trip incl. client verify"}
	rows = make([][]float64, len(names))
	e2e = nil
	for _, r := range ofKind(gw.recs, opGet) {
		in := reads[spanKey{r.edge, r.session, r.corr}]
		if in == nil || r.done == 0 {
			continue
		}
		rows[0] = append(rows[0], us(r.launched-r.sent))
		rows[1] = append(rows[1], us(in.Start-r.launched))
		rows[2] = append(rows[2], us(in.End-in.Start))
		rows[3] = append(rows[3], us(r.done-in.End))
		e2e = append(e2e, us(r.done-r.sent))
	}
	get.Name = "verified get (" + gw.phase + ")"
	finish(&get, rows, names, e2e)
	return put, get
}

// spanMetrics computes the traced-only layer metrics: self time per
// message kind (no spans nest inside a node's handler, so a span's
// duration is its self time) over the timed window.
func (a *arm) spanMetrics(m metrics) {
	type acc struct {
		ns int64
		n  int
	}
	by := map[string]*acc{}
	for i := range a.spans {
		sp := &a.spans[i]
		if sp.Start < a.s1.at || sp.Start > a.s2.at {
			continue
		}
		node := "edge"
		if sp.Node == cloudID {
			node = "cloud"
		}
		k := node + "." + sp.Kind
		if by[k] == nil {
			by[k] = &acc{}
		}
		by[k].ns += sp.End - sp.Start
		by[k].n++
	}
	mean := func(k string) float64 {
		if x := by[k]; x != nil && x.n > 0 {
			return float64(x.ns) / float64(x.n) / 1e3
		}
		return 0
	}
	for _, kind := range []string{"PutBatch", "PutRequest", "GetRequest", "ScanRequest", "BlockProof", "MergeResponse"} {
		m.set("edge.busy_us."+kind, "us", mean("edge."+kind))
	}
	m.set("edge.tick_us", "us", mean("edge.Tick"))
	m.set("cloud.busy_us.BlockCertify", "us", mean("cloud.BlockCertify"))
	m.set("cloud.merge_ms", "ms", mean("cloud.MergeRequest")/1e3)
}

func fmtBudget(w io.Writer, b budget, overheadPct float64) {
	fmt.Fprintf(w, "budget: %s\n", b.Name)
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-34s %10.1f us  (n=%d)\n", r.Stage, r.P50us, r.N)
	}
	fmt.Fprintf(w, "  %-34s %10.1f us\n", "residual vs end-to-end median", b.ResidualUs)
	fmt.Fprintf(w, "  %-34s %10.1f us\n", "end-to-end median (traced)", b.EndToEndUs)
	fmt.Fprintf(w, "  %-34s %10.1f %%\n", "trace.overhead_pct", overheadPct)
}

func fmtMetrics(w io.Writer, title string, m metrics) {
	fmt.Fprintf(w, "%s\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, v.Value, v.Unit)
	}
}

func finite(m metrics) error {
	var bad []string
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metrics without a value: %s", strings.Join(bad, ", "))
	}
	return nil
}
