package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"

	"wedgechain/internal/shard"
	"wedgechain/internal/workload"
)

const valueSize = 128

type opKind uint8

const (
	opPut opKind = iota + 1
	opGet
	opScan
)

func (k opKind) String() string {
	switch k {
	case opPut:
		return "put"
	case opGet:
		return "get"
	case opScan:
		return "scan"
	}
	return "?"
}

// opIn is one generated operation. Keys are numbers rendered through
// workload.KeyName; a scan covers [key, end).
type opIn struct {
	due  int64 // open loop: offset from the start of the timed phase (ns)
	kind opKind
	key  int
	end  int
	val  []byte
}

// inputs is everything a run feeds the system, generated from the seed
// before any node starts.
type inputs struct {
	// preload[j] is the value of preloaded key preloadKey(j).
	preload [][]byte
	// filler[shard] are full-block batches of keys no workload reads,
	// routed to that shard, written until the shard's L0 merges (see
	// arm.settleL0) and to prefill it.
	filler [][][]opIn
	// batches are ingest's PutBatches, in issue order.
	batches [][]opIn
	// ops are the timed phase of read_verify and mixed, in issue order.
	ops []opIn
	// readBack are positions into the acked writes whose final values
	// the check phase reads back (into the flattened batches for ingest,
	// into ops for mixed).
	readBack []int
	// checkGets and checkScans are the check phase's reads of keys the
	// timed phase does not write; their results must equal the model.
	checkGets  []opIn
	checkScans []opIn
}

// preloadKey maps preload index j to its key number. Preloaded keys are
// the even numbers, so every odd number between them is a miss that the
// edge must prove absent.
func preloadKey(j int) int { return 2 * j }

func keyBytes(n int) []byte { return workload.KeyName(n) }

// ingestSpace is the key-number space ingest draws fresh keys from;
// filler keys lie above it, still within workload.KeyName's eight
// digits so they sort after every ingest key.
const ingestSpace = 90_000_000

func randValue(rng *rand.Rand) []byte {
	v := make([]byte, valueSize)
	rng.Read(v)
	return v
}

// zipf samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^s. rand.Zipf needs
// s > 1; the paper-style skew 0.99 needs the explicit CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var t float64
	for r := 0; r < n; r++ {
		t += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = t
	}
	for r := range z.cdf {
		z.cdf[r] /= t
	}
	return z
}

func (z *zipf) rank(rng *rand.Rand) int {
	u := rng.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// generate builds one trial's inputs. The same (spec, seed, trial,
// seconds) always gives byte-identical inputs; each stream has its own
// sub-seed so changing one stream's length does not shift another's.
func generate(sp spec, seed int64, trial, seconds int) *inputs {
	in := &inputs{}
	sub := func(stream int64) *rand.Rand {
		return rand.New(rand.NewSource(seed*1_000_003 + int64(trial)*1_009 + stream))
	}

	fillerBase := ingestSpace
	if sp.Preload > 0 {
		rng := sub(1)
		in.preload = make([][]byte, sp.Preload)
		for j := range in.preload {
			in.preload[j] = randValue(rng)
		}
		fillerBase = 4 * sp.Preload
	}
	// Two settles of at most ten blocks each, and the prefill.
	in.filler = fillerBatches(sub(6), fillerBase, 20+sp.PrefillBlocks)

	switch sp.Name {
	case "ingest":
		rng := sub(2)
		nb := sp.batchesFor(seconds)
		used := make(map[int]bool, nb*sp.BatchSize)
		for b := 0; b < nb; b++ {
			batch := make([]opIn, sp.BatchSize)
			for i := range batch {
				k := rng.Intn(ingestSpace)
				for used[k] {
					k = rng.Intn(ingestSpace)
				}
				used[k] = true
				batch[i] = opIn{kind: opPut, key: k, val: randValue(rng)}
			}
			in.batches = append(in.batches, batch)
		}
		total := nb * sp.BatchSize
		in.readBack = sampleIdx(sub(3), total, sp.CheckGets)
		// Scan ranges wide enough to hold about ScanKeys written keys.
		width := sp.ScanKeys * ingestSpace / total
		rs := sub(4)
		for i := 0; i < sp.CheckScans; i++ {
			a := rs.Intn(ingestSpace - width)
			in.checkScans = append(in.checkScans, opIn{kind: opScan, key: a, end: a + width})
		}
	case "read_verify":
		rng := sub(2)
		n := sp.opsFor(seconds)
		for i := 0; i < n; i++ {
			j := rng.Intn(sp.Preload)
			k := preloadKey(j)
			if rng.Float64() < sp.MissShare {
				k++ // odd: between two preloaded keys
			}
			in.ops = append(in.ops, opIn{kind: opGet, key: k})
		}
		in.checkScans = preloadScans(sub(4), sp)
	case "mixed":
		rng := sub(2)
		z := newZipf(sp.Preload, sp.ZipfS)
		horizon := int64(seconds) * 1e9 / int64(sp.Trials)
		var t float64
		for {
			t += rng.ExpFloat64() / sp.Rate * 1e9
			if int64(t) >= horizon {
				break
			}
			// Rank 0 is the most recently preloaded key.
			k := preloadKey(sp.Preload - 1 - z.rank(rng))
			op := opIn{due: int64(t), key: k}
			switch u := rng.Float64(); {
			case u < sp.ScanShare:
				op.kind, op.end = opScan, k+2*sp.ScanKeys
			case u < sp.ScanShare+sp.PutShare:
				op.kind, op.val = opPut, randValue(rng)
			default:
				op.kind = opGet
			}
			in.ops = append(in.ops, op)
		}
		var puts []int
		for i, op := range in.ops {
			if op.kind == opPut {
				puts = append(puts, i)
			}
		}
		for _, p := range sampleIdx(sub(3), len(puts), sp.CheckGets) {
			in.readBack = append(in.readBack, puts[p])
		}
		in.checkScans = preloadScans(sub(4), sp)
	}

	if sp.Preload > 0 {
		rng := sub(5)
		for i := 0; i < sp.CheckGets; i++ {
			k := preloadKey(rng.Intn(sp.Preload))
			if rng.Float64() < sp.MissShare {
				k++
			}
			in.checkGets = append(in.checkGets, opIn{kind: opGet, key: k})
		}
	}
	return in
}

// fillerBatches returns, per shard, blocks 100-key batches routed to
// that shard, with keys from base up. Ten fill an empty L0 (edge -l0
// default).
func fillerBatches(rng *rand.Rand, base, blocks int) [][][]opIn {
	const batch = 100
	out := make([][][]opIn, len(edgeIDs))
	cur := make([][]opIn, len(edgeIDs))
	for k, full := base, 0; full < len(edgeIDs); k++ {
		sh := shard.Of(keyBytes(k), len(edgeIDs))
		if len(out[sh]) == blocks {
			continue
		}
		cur[sh] = append(cur[sh], opIn{kind: opPut, key: k, val: randValue(rng)})
		if len(cur[sh]) == batch {
			out[sh] = append(out[sh], cur[sh])
			cur[sh] = nil
			if len(out[sh]) == blocks {
				full++
			}
		}
	}
	return out
}

func preloadScans(rng *rand.Rand, sp spec) []opIn {
	var out []opIn
	for i := 0; i < sp.CheckScans; i++ {
		k := preloadKey(rng.Intn(sp.Preload - sp.ScanKeys))
		out = append(out, opIn{kind: opScan, key: k, end: k + 2*sp.ScanKeys})
	}
	return out
}

// sampleIdx draws min(k, n) distinct indices below n, in ascending order.
func sampleIdx(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	idx := rng.Perm(n)[:k]
	sort.Ints(idx)
	return idx
}

// digest is a canonical hash of every generated byte, for the
// determinism test and the result record.
func (in *inputs) digest() [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	ops := func(tag int64, xs []opIn) {
		put(tag)
		put(int64(len(xs)))
		for _, o := range xs {
			put(o.due)
			put(int64(o.kind))
			put(int64(o.key))
			put(int64(o.end))
			put(int64(len(o.val)))
			h.Write(o.val)
		}
	}
	put(int64(len(in.preload)))
	for _, v := range in.preload {
		h.Write(v)
	}
	for _, sh := range in.filler {
		for _, bt := range sh {
			ops(5, bt)
		}
	}
	put(int64(len(in.batches)))
	for _, bt := range in.batches {
		ops(1, bt)
	}
	ops(2, in.ops)
	put(int64(len(in.readBack)))
	for _, i := range in.readBack {
		put(int64(i))
	}
	ops(3, in.checkGets)
	ops(4, in.checkScans)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
