package main

import "testing"

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		a, b := generate(sp, 7, 0, 2).digest(), generate(sp, 7, 0, 2).digest()
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", sp.Name)
		}
		if c := generate(sp, 8, 0, 2).digest(); c == a {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", sp.Name)
		}
		if c := generate(sp, 7, 1, 2).digest(); c == a {
			t.Errorf("%s: trials 0 and 1 of seed 7 generated identical inputs", sp.Name)
		}
	}
}

func TestInputsMatchSpec(t *testing.T) {
	for _, sp := range specs {
		in := generate(sp, 3, 0, 30)
		if len(in.preload) != sp.Preload {
			t.Errorf("%s: %d preload values, want %d", sp.Name, len(in.preload), sp.Preload)
		}
		for _, v := range in.preload {
			if len(v) != valueSize {
				t.Fatalf("%s: preload value of %d bytes", sp.Name, len(v))
			}
		}
		switch sp.Name {
		case "ingest":
			seen := map[int]bool{}
			for _, b := range in.batches {
				if len(b) != sp.BatchSize {
					t.Fatalf("ingest batch of %d entries", len(b))
				}
				for _, o := range b {
					if seen[o.key] {
						t.Fatalf("ingest key %d drawn twice; keys must be fresh", o.key)
					}
					seen[o.key] = true
				}
			}
			if got := len(in.batches) * sp.BatchSize; got != sp.opsFor(30)/sp.BatchSize*sp.BatchSize {
				t.Errorf("ingest: %d entries", got)
			}
		case "read_verify":
			miss := 0
			for _, o := range in.ops {
				if o.kind != opGet {
					t.Fatalf("read_verify op %v", o.kind)
				}
				if o.key%2 == 1 {
					miss++
				}
			}
			if share := float64(miss) / float64(len(in.ops)); share < 0.07 || share > 0.13 {
				t.Errorf("read_verify miss share %.3f, want about %.2f", share, sp.MissShare)
			}
		case "mixed":
			counts := map[opKind]int{}
			var last int64
			for _, o := range in.ops {
				counts[o.kind]++
				if o.due < last {
					t.Fatal("mixed schedule is not in due order")
				}
				last = o.due
			}
			n := float64(len(in.ops))
			if want := sp.Rate * 30 / float64(sp.Trials); n < 0.9*want || n > 1.1*want {
				t.Errorf("mixed: %v ops in a 30 s run's trial at %v/s", n, sp.Rate)
			}
			if s := float64(counts[opScan]) / n; s < 0.03 || s > 0.07 {
				t.Errorf("mixed scan share %.3f", s)
			}
			if s := float64(counts[opPut]) / n; s < 0.12 || s > 0.18 {
				t.Errorf("mixed put share %.3f", s)
			}
		}
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(1000, 0.99)
	if z.cdf[len(z.cdf)-1] < 0.999999 {
		t.Fatalf("cdf ends at %v", z.cdf[len(z.cdf)-1])
	}
	// P(rank 0) = 1/H where H = sum 1/(r+1)^0.99 over 1000 ranks (about 7.7).
	if p0 := z.cdf[0]; p0 < 0.12 || p0 > 0.14 {
		t.Errorf("P(rank 0) = %.4f, want about 0.13", p0)
	}
}
