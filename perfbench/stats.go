package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// summary is a timing distribution reduced to what the benchmark
// reports: median, p99 and the sample count behind them.
type summary struct {
	N   int
	P50 float64
	P99 float64
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, the definition numpy and Python's
// statistics.quantiles(method="inclusive") share. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// minTail is the fewest samples whose p99 has ten samples beyond it.
const minTail = 1000

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	xs = append([]float64(nil), xs...)
	return summary{N: len(xs), P50: percentile(xs, 0.50), P99: percentile(xs, 0.99)}
}

// acrossTrials reduces one latency metric over a run's trials: the
// median of the trials' medians, and the median of their p99s when every
// trial has a full tail, else the p99 of all trials' samples pooled.
// Each trial runs on its own cluster, so a stall in one trial (a garbage
// collection or merge cascade) moves one trial's figure, not the run's.
func acrossTrials(trials [][]float64) summary {
	var s summary
	var p50s, p99s, pooled []float64
	full := true
	for _, xs := range trials {
		t := summarize(xs)
		s.N += t.N
		p50s = append(p50s, t.P50)
		p99s = append(p99s, t.P99)
		pooled = append(pooled, xs...)
		full = full && t.N >= minTail
	}
	if s.N == 0 {
		return summary{P50: math.NaN(), P99: math.NaN()}
	}
	s.P50 = percentile(p50s, 0.5)
	if full {
		s.P99 = percentile(p99s, 0.5)
	} else {
		s.P99 = percentile(pooled, 0.99)
	}
	return s
}

// ratio is num/den, or 0 when den is 0 (an empty denominator has no rate).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promSeries is one parsed Prometheus text-format sample.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is a parsed /metrics snapshot.
type scrape []promSeries

// parseProm parses the text exposition format the nodes serve. Only the
// subset obs.WriteProm emits is supported: no timestamps, no escapes
// inside label values beyond \" and \\.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		head := line[:sp]
		s := promSeries{value: v, labels: map[string]string{}}
		if br := strings.IndexByte(head, '{'); br >= 0 {
			s.name = head[:br]
			parseLabels(strings.TrimSuffix(head[br+1:], "}"), s.labels)
		} else {
			s.name = head
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseLabels(s string, into map[string]string) {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return
		}
		k := s[:eq]
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
			}
			b.WriteByte(rest[i])
		}
		into[k] = b.String()
		if i+1 >= len(rest) {
			return
		}
		s = strings.TrimPrefix(rest[i+1:], ",")
	}
}

func (sc scrape) match(s promSeries, name string, want map[string]string) bool {
	if s.name != name {
		return false
	}
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of name whose labels include want.
func (sc scrape) sum(name string, want map[string]string) float64 {
	var t float64
	for _, s := range sc {
		if sc.match(s, name, want) {
			t += s.value
		}
	}
	return t
}

// hist is a cumulative histogram: upper bounds (the last is +Inf) with
// cumulative counts, as the exposition format carries it.
type hist struct {
	le  []float64
	cum []float64
	sum float64
}

// histogram merges every child of a histogram family whose labels
// include want (children share their family's bucket bounds).
func (sc scrape) histogram(name string, want map[string]string) hist {
	byLE := map[float64]float64{}
	var h hist
	for _, s := range sc {
		switch {
		case sc.match(s, name+"_bucket", want):
			le := math.Inf(1)
			if s.labels["le"] != "+Inf" {
				le, _ = strconv.ParseFloat(s.labels["le"], 64)
			}
			byLE[le] += s.value
		case sc.match(s, name+"_sum", want):
			h.sum += s.value
		}
	}
	for le := range byLE {
		h.le = append(h.le, le)
	}
	sort.Float64s(h.le)
	for _, le := range h.le {
		h.cum = append(h.cum, byLE[le])
	}
	return h
}

// minus returns the histogram of observations made between two scrapes.
func (h hist) minus(base hist) hist {
	out := hist{le: h.le, cum: make([]float64, len(h.cum)), sum: h.sum - base.sum}
	for i := range h.cum {
		out.cum[i] = h.cum[i]
		if i < len(base.cum) && base.le[i] == h.le[i] {
			out.cum[i] -= base.cum[i]
		}
	}
	return out
}

func (h hist) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

func (h hist) mean() float64 { return ratio(h.sum, h.count()) }

// quantile estimates the q-quantile by linear interpolation inside the
// bucket holding it (the Prometheus histogram_quantile rule). The lowest
// bucket interpolates from 0; a quantile in +Inf returns the last finite
// bound.
func (h hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * n
	prevLE, prevCum := 0.0, 0.0
	for i, le := range h.le {
		if h.cum[i] >= rank {
			if math.IsInf(le, 1) {
				return prevLE
			}
			if h.cum[i] == prevCum {
				return le
			}
			return prevLE + (le-prevLE)*(rank-prevCum)/(h.cum[i]-prevCum)
		}
		prevLE, prevCum = le, h.cum[i]
	}
	return prevLE
}
