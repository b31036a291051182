package binpack

import (
	"testing"
)

// bpRand is the repo-standard xorshift64 PRNG for deterministic tests.
type bpRand uint64

func (r *bpRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = bpRand(x)
	return x
}

var allStrategies = []Strategy{FreeList, FirstFit, BestFit, SumOfSquares, WorstFit, NextFit}

// appendIntervalsRef is the boolean-walk reference of appendIntervals.
func appendIntervalsRef(p *Packer, ivs []Interval) []Interval {
	i := 0
	for i < len(p.free) {
		if !p.free[i] {
			i++
			continue
		}
		start := i
		for i < len(p.free) && p.free[i] {
			i++
		}
		ivs = append(ivs, Interval{Start: start, Len: i - start})
	}
	return ivs
}

// prefixRanksRef is the boolean-walk reference of prefixRanks.
func prefixRanksRef(p *Packer, size int) []int {
	var ranks []int
	for r := 0; r < len(p.free) && len(ranks) < size; r++ {
		if p.free[r] {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// checkScans fails unless the word-parallel interval and prefix scans
// agree with the boolean-walk references on p's current state, for the
// prefix of size and for the whole free list (minSpanRanks' input).
func checkScans(t *testing.T, p *Packer, step, size int) {
	t.Helper()
	wi, ri := p.Intervals(), appendIntervalsRef(p, nil)
	if len(wi) != len(ri) {
		t.Fatalf("step %d: intervals %v vs %v", step, wi, ri)
	}
	for i := range wi {
		if wi[i] != ri[i] {
			t.Fatalf("step %d: intervals %v vs %v", step, wi, ri)
		}
	}
	for _, k := range []int{size, p.NumFree()} {
		got, want := p.prefixRanks(k), prefixRanksRef(p, k)
		if len(got) != len(want) {
			t.Fatalf("step %d: prefix %d ranks %v vs %v", step, k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: prefix %d ranks %v vs %v", step, k, got, want)
			}
		}
	}
}

// churnScans drives a packer through a random allocate/release sequence
// and checks the word-parallel scans against the references before every
// request and after every release. Every strategy decides from the
// intervals and the free prefix alone, so agreement there means the
// word-parallel packer places every request exactly as the boolean walk
// would.
func churnScans(t *testing.T, p *Packer, s Strategy, seed uint64, steps int) {
	t.Helper()
	r := bpRand(seed)
	var live [][]int
	for step := 0; step < steps; step++ {
		if r.next()%3 != 0 && p.NumFree() > 0 {
			size := int(r.next()%uint64(p.NumFree())) + 1
			checkScans(t, p, step, size)
			ids, err := p.Allocate(size, s)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live, ids)
		} else if len(live) > 0 {
			i := int(r.next() % uint64(len(live)))
			p.Release(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			checkScans(t, p, step, 1)
		}
	}
}

// TestWordScanMatchesNaive churns packers for every strategy and several
// awkward sizes (word boundaries, sub-word, multi-word), comparing the
// word-parallel scans with the boolean walks at every step.
func TestWordScanMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 17, 64, 65, 127, 128, 300, 1024} {
		for _, s := range allStrategies {
			churnScans(t, New(identityOrder(n)), s, uint64(n)*13+uint64(s)+1, 200)
		}
	}
}

// TestWordScanBitsMirrorsFree checks the bitset invariant directly after a
// churn: bit r set iff free[r], and pad bits clear.
func TestWordScanBitsMirrorsFree(t *testing.T) {
	p := New(identityOrder(130))
	r := bpRand(5)
	var live [][]int
	for step := 0; step < 400; step++ {
		if r.next()%3 != 0 && p.NumFree() > 0 {
			size := int(r.next()%uint64(p.NumFree())) + 1
			ids, err := p.Allocate(size, allStrategies[step%len(allStrategies)])
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, ids)
		} else if len(live) > 0 {
			p.Release(live[len(live)-1])
			live = live[:len(live)-1]
		}
		for rank, free := range p.free {
			if p.bits.Get(rank) != free {
				t.Fatalf("step %d: bit %d = %v, free = %v", step, rank, p.bits.Get(rank), free)
			}
		}
		if p.bits.Count() != p.NumFree() {
			t.Fatalf("step %d: bit count %d, NumFree %d", step, p.bits.Count(), p.NumFree())
		}
	}
}

// FuzzWordScanEquivalence fuzzes the word-parallel scans against the
// boolean walks over arbitrary op streams.
func FuzzWordScanEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(64), uint8(1))
	f.Add(uint64(99), uint8(200), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, size, strat uint8) {
		n := int(size)%512 + 1
		s := allStrategies[int(strat)%len(allStrategies)]
		churnScans(t, New(identityOrder(n)), s, seed|1, 120)
	})
}
