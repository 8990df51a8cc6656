package main

import "fmt"

// spec is one workload's parameters. Every field is recorded in the
// result so a figure can be traced to the load that produced it.
type spec struct {
	Name     string `json:"name"`
	Why      string `json:"why"`
	Loop     string `json:"loop"`     // "closed" or "open"
	Sessions int    `json:"sessions"` // client sessions on the one endpoint
	Preload  int    `json:"preload_keys"`

	// A run is Trials independent trials, each on a freshly booted
	// cluster; every metric is the median over the trials, so one trial
	// hit by a stall does not move the run's figure, and setup_s is the
	// median of the trials' set-ups.
	Trials int `json:"trials"`
	// PrefillBlocks full blocks per shard are written after set-up
	// empties the L0, so the timed phase's writes trigger one L0 merge per
	// shard at the same point of every trial.
	PrefillBlocks int `json:"prefill_blocks,omitempty"`

	// Closed loop: BatchSize entries per session-signed PutBatch (ingest)
	// and a fixed op count of OpsPerSecond × --seconds split over the
	// trials, so merge cycles and byte counts repeat from run to run.
	// Ingest's count keeps the nodes' memory well under 1 GB, so its
	// timed phase is shorter than --seconds.
	BatchSize    int     `json:"batch_size,omitempty"`
	OpsPerSecond float64 `json:"ops_per_second,omitempty"`

	// Open loop: seeded Poisson arrivals at Rate ops/s for --seconds.
	Rate      float64 `json:"rate_per_s,omitempty"`
	GetShare  float64 `json:"get_share,omitempty"`
	PutShare  float64 `json:"put_share,omitempty"`
	ScanShare float64 `json:"scan_share,omitempty"`
	ZipfS     float64 `json:"zipf_s,omitempty"`
	// MaxGenLagMs: the run is invalid when the generator's p99 lag
	// behind its schedule exceeds this.
	MaxGenLagMs float64 `json:"max_gen_lag_ms,omitempty"`

	MissShare float64 `json:"miss_share,omitempty"`
	ScanKeys  int     `json:"scan_keys"`

	// Latency limits at p99; an op over its limit counts as failed in
	// ok_ratio (open loop only).
	PutLimitMs  float64 `json:"put_limit_ms,omitempty"`
	GetLimitMs  float64 `json:"get_limit_ms,omitempty"`
	ScanLimitMs float64 `json:"scan_limit_ms,omitempty"`

	// Check phase, after the timed phase drains.
	CheckGets  int `json:"check_gets"`
	CheckScans int `json:"check_scans"`
}

// batchesFor and opsFor size one trial.
func (s spec) batchesFor(seconds int) int { return s.opsFor(seconds) / s.BatchSize }

func (s spec) opsFor(seconds int) int {
	return int(s.OpsPerSecond * float64(seconds) / float64(s.Trials))
}

var specs = []spec{
	{
		Name: "ingest",
		Why: "closed-loop write-only: 16 sessions each with one 100-entry PutBatch in flight, fresh uniform keys; " +
			"blocks cut when full, so verify pool, ack signing, certification and LSMerkle merges carry the load",
		Loop: "closed", Sessions: 16, Trials: 5, BatchSize: 100, OpsPerSecond: 3750,
		ScanKeys: 64, CheckGets: 1000, CheckScans: 1000,
	},
	{
		Name: "read_verify",
		Why: "closed-loop read-only: 32 sessions each with one Get in flight over a 50K-key preload, 10% verified misses; " +
			"edge proof building and client verification carry the load, with no certification or merges",
		Loop: "closed", Sessions: 32, Trials: 3, Preload: 50_000, OpsPerSecond: 1500, MissShare: 0.10,
		ScanKeys: 64, CheckScans: 1000,
	},
	{
		Name: "mixed",
		Why: "open-loop edge-IoT mix at a fixed Poisson rate: 80% Get, 15% single Put, 5% 64-key Scan, Zipf(0.99) by recency; " +
			"hot reads and scatter-gather scans run over merges while single puts wait for their block to cut",
		Loop: "open", Sessions: 16, Trials: 3, PrefillBlocks: 7, Preload: 50_000, Rate: 560,
		GetShare: 0.80, PutShare: 0.15, ScanShare: 0.05, ZipfS: 0.99, MaxGenLagMs: 25,
		ScanKeys:   64,
		PutLimitMs: 250, GetLimitMs: 50, ScanLimitMs: 100,
		CheckGets: 1000,
	},
}

func specFor(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
