package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileFixedVectors(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.99, 3.97},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{5}, 0.99, 5},
		{[]float64{10, 20, 30, 40, 50}, 0.25, 20},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 1000 || !near(s.P50, 500.5) || !near(s.P99, 990.01) {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	// Three trials of 1000: a stall confined to one trial moves that
	// trial's p99 only, and the median of the three ignores it.
	stalled := append([]float64(nil), xs...)
	for i := 0; i < 100; i++ {
		stalled[i] = 1e6
	}
	s = acrossTrials([][]float64{xs, stalled, xs})
	if s.N != 3000 || !near(s.P99, 990.01) || !near(s.P50, 500.5) {
		t.Errorf("acrossTrials = %+v", s)
	}
	// Trials too short for a tail each pool their samples instead.
	s = acrossTrials([][]float64{xs[:500], xs[500:]})
	if s.N != 1000 || !near(s.P99, 990.01) || !near(s.P50, 500.5) {
		t.Errorf("pooled acrossTrials = %+v", s)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN, so the run reports it as missing")
	}
}

func TestRatio(t *testing.T) {
	if ratio(3, 4) != 0.75 || ratio(1, 0) != 0 || ratio(0, 5) != 0 {
		t.Error("ratio")
	}
}

const promText = `# HELP wedge_x_total x
# TYPE wedge_x_total counter
wedge_x_total{node="edge-1"} 5
wedge_x_total{node="edge-2"} 7
wedge_lat_seconds_bucket{node="a",stage="edge",le="0.001"} 10
wedge_lat_seconds_bucket{node="a",stage="edge",le="0.002"} 30
wedge_lat_seconds_bucket{node="a",stage="edge",le="0.004"} 40
wedge_lat_seconds_bucket{node="a",stage="edge",le="+Inf"} 40
wedge_lat_seconds_sum{node="a",stage="edge"} 0.06
wedge_lat_seconds_count{node="a",stage="edge"} 40
`

func TestScrapeSumsAndHistogramQuantiles(t *testing.T) {
	sc, err := parseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.sum("wedge_x_total", nil); got != 12 {
		t.Errorf("sum = %v, want 12", got)
	}
	if got := sc.sum("wedge_x_total", map[string]string{"node": "edge-2"}); got != 7 {
		t.Errorf("labelled sum = %v, want 7", got)
	}
	h := sc.histogram("wedge_lat_seconds", map[string]string{"stage": "edge"})
	if h.count() != 40 || !near(h.mean(), 0.0015) {
		t.Errorf("count %v mean %v", h.count(), h.mean())
	}
	// Rank 20 of 40 lies halfway through the (0.001, 0.002] bucket.
	if got := h.quantile(0.5); !near(got, 0.0015) {
		t.Errorf("p50 = %v, want 0.0015", got)
	}
	// Rank 5 lies halfway through the first bucket, interpolated from 0.
	if got := h.quantile(0.125); !near(got, 0.0005) {
		t.Errorf("p12.5 = %v, want 0.0005", got)
	}
	base := hist{le: h.le, cum: []float64{10, 10, 10, 10}, sum: 0.005}
	d := h.minus(base)
	if d.count() != 30 || !near(d.quantile(0.5), 0.00175) {
		t.Errorf("delta count %v p50 %v", d.count(), d.quantile(0.5))
	}
	if (hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram quantile")
	}
}
