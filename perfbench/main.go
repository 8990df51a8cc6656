// Command perfbench is WedgeChain's end-to-end benchmark. It boots the
// shipped wedge-cloud and two wedge-edge shards on loopback, drives one
// named workload from a single load-generator process, checks every
// result against a model of what the store must hold, and prints the
// metrics as one JSON object on the last line of standard output.
//
// With -trace 1 it also runs the same workload against the same node
// state machines hosted in-process with every handler call traced, and
// reports per-layer metrics and latency budgets instead of the
// end-to-end set.
//
// Usually run through run.py, which builds the binaries first:
//
//	python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
)

func main() { os.Exit(run()) }

// stoppers stop everything the bench started when a signal arrives.
// Every stop is idempotent and waits for a concurrent one, so the main
// goroutine's own teardown may race the signal's.
var stoppers struct {
	sync.Mutex
	fns []func()
}

func onSignal(fn func()) {
	stoppers.Lock()
	stoppers.fns = append(stoppers.fns, fn)
	stoppers.Unlock()
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: ingest, read_verify or mixed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = per-layer metrics from an extra traced in-process run")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding wedge-cloud and wedge-edge")
		outDir   = flag.String("out", ".bench_build/out", "directory for logs, spans and the result record")
	)
	flag.Parse()
	sp, err := specFor(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|read_verify|mixed --seed N --seconds S --trace 0|1")
		return 2
	}
	for _, b := range []string{"wedge-cloud", "wedge-edge"} {
		if _, err := os.Stat(filepath.Join(*binDir, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build the node binaries first; see run.py)\n", err)
			return 2
		}
	}
	runDir := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", sp.Name, *seed, *trace))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stoppers.Lock()
		for i := len(stoppers.fns) - 1; i >= 0; i-- {
			stoppers.fns[i]()
		}
		os.Exit(3)
	}()

	names, err := promisedMetrics(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(context.Background(), sp, *seed, *seconds, *trace == 1, *binDir, runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range names {
		if _, ok := res.Metrics[n]; !ok {
			res.Failures = append(res.Failures, "metric "+n+" named in BENCHMARK.json was not produced")
			res.Correct = false
		}
	}
	res.Host = fingerprint()
	res.Seed, res.Seconds, res.Workload = *seed, *seconds, sp
	rec, _ := json.MarshalIndent(res, "", "  ")
	if err := os.WriteFile(filepath.Join(runDir, "result.json"), rec, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout, names)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the full record of a run; the last stdout line carries the
// subset BENCHMARK.json names.
type result struct {
	Correct      bool           `json:"correct"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	Metrics      metrics        `json:"metrics"`
	Failures     []string       `json:"check_failures,omitempty"`
	Invalid      string         `json:"invalid,omitempty"`
	Samples      map[string]int `json:"samples"`
	Trials       []trialResult  `json:"trials"`
	EndToEnd     metrics        `json:"end_to_end"`
	Traced       metrics        `json:"traced_end_to_end,omitempty"`
	Budgets      []budget       `json:"budgets,omitempty"`
	Host         host           `json:"host"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Workload     spec           `json:"workload"`
	InputsSHA256 string         `json:"inputs_sha256"`
	Setups       []float64      `json:"setup_s_each"`
	overheadPct  float64
}

// promisedMetrics returns the metric names BENCHMARK.json, at the root
// of the checkout the bench runs from, promises on the last line:
// end-to-end ones, or per-layer ones for a traced run.
func promisedMetrics(traced bool) ([]string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := c.EndToEnd
	if traced {
		list = c.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// print writes the human tables, then the result line: the named
// metrics only.
func (r *result) print(w io.Writer, names []string) {
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed; correct=%v\n",
		r.Workload.Name, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  CHECK FAILED:", f)
	}
	if r.Invalid != "" {
		fmt.Fprintln(w, "  INVALID RUN:", r.Invalid)
	}
	fmtMetrics(w, "end-to-end (untraced, shipped binaries)", r.EndToEnd)
	for _, b := range r.Budgets {
		fmtBudget(w, b, r.overheadPct)
	}
	if len(r.Traced) > 0 {
		fmtMetrics(w, "per-layer", r.Metrics)
	}
	named := metrics{}
	for _, n := range names {
		if m, ok := r.Metrics[n]; ok {
			named[n] = m
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, named})
	fmt.Fprintln(w, string(line))
}

// trialResult is what one trial contributes to the run.
type trialResult struct {
	EndToEnd metrics           `json:"end_to_end"`
	Samples  map[string]int    `json:"samples"`
	Phases   map[string]string `json:"metric_phases"`
	outcome  outcome
	lagP99   float64
	timings  timings
}

// runTrial drives one booted arm through its timed and check phases,
// verifies it and tears it down.
func runTrial(ctx context.Context, a *arm, c *checker, runDir string, i int) error {
	if err := a.runTimed(ctx); err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	m := buildModel(a.in, a.timed)
	if err := a.runCheck(ctx, m); err != nil {
		return fmt.Errorf("check phase: %w", err)
	}
	v := a.verify(m)
	for _, f := range v.failures {
		c.fail("trial %d: %s", i, f)
	}
	if a.traced {
		a.spans = a.cl.(*inprocCluster).takeSpans()
		a.teardown()
		return nil
	}
	a.teardown()
	return a.writeOps(filepath.Join(runDir, fmt.Sprintf("ops-trial%d.tsv", i)))
}

func (a *arm) trialResult() trialResult {
	t := a.timings()
	tr := trialResult{
		EndToEnd: a.endToEnd(),
		Samples:  map[string]int{"put_ack": len(t.putAck), "trust_lag": len(t.trustLag), "get": len(t.get), "scan": len(t.scan)},
		Phases:   map[string]string{"put": t.putSrc, "get": t.getSrc, "scan": t.scanSrc},
		outcome:  a.outcome(),
		timings:  t,
	}
	if len(a.lags) > 0 {
		tr.lagP99 = percentile(append([]float64(nil), a.lags...), 0.99)
	}
	return tr
}

func execute(ctx context.Context, sp spec, seed int64, seconds int, traced bool, binDir, runDir string) (*result, error) {
	res := &result{}
	c := &checker{}
	var first *arm
	var digest []byte
	for i := 0; i < sp.Trials; i++ {
		in := generate(sp, seed, i, seconds)
		d := in.digest()
		digest = append(digest, d[:]...)
		a := &arm{sp: sp, in: in, binDir: binDir, outDir: runDir}
		err := a.boot(ctx)
		res.Setups = append(res.Setups, a.setup)
		if err == nil {
			err = runTrial(ctx, a, c, runDir, i)
		}
		a.teardown()
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i, err)
		}
		tr := a.trialResult()
		res.Trials = append(res.Trials, tr)
		res.Attempted += tr.outcome.attempted
		res.Failed += tr.outcome.failed
		if sp.MaxGenLagMs > 0 && tr.lagP99 > sp.MaxGenLagMs {
			res.Invalid = fmt.Sprintf("trial %d: generator p99 lag %.2f ms behind schedule exceeds %.2f ms", i, tr.lagP99, sp.MaxGenLagMs)
		}
		if first == nil {
			first = a
		}
	}
	res.InputsSHA256 = fmt.Sprintf("%x", sha256.Sum256(digest))
	res.EndToEnd = medianOver(res.Trials)
	var ts []timings
	for _, tr := range res.Trials {
		ts = append(ts, tr.timings)
	}
	res.Samples = res.EndToEnd.setTimings(ts)
	for name, n := range res.Samples {
		if n < minTail {
			c.fail("%s: %d samples, need %d for ten beyond p99", name, n, minTail)
		}
	}
	var slo int
	for _, tr := range res.Trials {
		slo += tr.outcome.sloMissed
	}
	res.EndToEnd.set("ok_ratio", "1", ratio(float64(res.Attempted-res.Failed-slo), float64(res.Attempted)))
	res.Metrics = res.EndToEnd

	if traced {
		layer := first.perLayer()
		ta := &arm{sp: sp, in: first.in, binDir: binDir, outDir: runDir, traced: true}
		defer ta.teardown()
		if err := ta.boot(ctx); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		tc := &checker{}
		if err := runTrial(ctx, ta, tc, runDir, 0); err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		c.failures = append(c.failures, prefixed("traced: ", tc.failures)...)
		if err := writeSpans(filepath.Join(runDir, "spans.jsonl"), ta.spans); err != nil {
			return nil, err
		}
		tt, t := ta.timings(), first.timings()
		res.Traced = metrics{}
		res.Traced.setTimings([]timings{tt})
		ta.spanMetrics(layer)
		put, get := ta.budgets()
		res.Budgets = []budget{put, get}
		put.set(layer, "budget.put.")
		get.set(layer, "budget.get.")
		// transport.wait_us follows the workload's dominant request.
		wait := get.stage(stageWait)
		if sp.Name == "ingest" {
			wait = put.stage(stageWait)
		}
		layer.set("transport.wait_us", "us", wait)
		res.overheadPct = 100 * (sp.headline(tt) - sp.headline(t)) / sp.headline(t)
		layer.set("trace.overhead_pct", "%", res.overheadPct)
		res.Metrics = layer
	}
	if err := finite(res.Metrics); err != nil {
		c.fail("%v", err)
	}
	res.Failures = c.failures
	res.Correct = c.ok() && res.Invalid == "" && res.Failed == 0
	return res, nil
}

// medianOver is each end-to-end metric's median over the trials.
func medianOver(trials []trialResult) metrics {
	out := metrics{}
	for name, m := range trials[0].EndToEnd {
		xs := make([]float64, len(trials))
		for i, tr := range trials {
			xs[i] = tr.EndToEnd[name].Value
		}
		out.set(name, m.Unit, percentile(xs, 0.5))
	}
	return out
}

func prefixed(p string, xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = p + x
	}
	return out
}

// host is the machine fingerprint every record carries.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	SourceSHA  string `json:"source_sha256"`
}

func fingerprint() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	h.SourceSHA = sourceDigest(".")
	return h
}

// sourceDigest hashes every Go source and module file under root: the
// checkout the benchmark runs in is not a git repository, so this
// stands in for the commit.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
