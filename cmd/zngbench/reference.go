package main

import (
	"slices"
	"time"
)

// referenceSink keeps the reference computation's result live.
var referenceSink uint64

// reference times one run of a fixed computation that belongs to the
// harness, not to the program: random updates to a map and a 4 MiB
// table, a stream of small allocations, and a sort, the same kinds of
// work that dominate a simulation cell's profile. On a shared host the
// speed of both drifts together from minute to minute (by up to 1.7x
// within one run set on a 2-vCPU VM), so an operation's time divided
// by the reference's, measured in the same run, holds steady where the
// raw time does not. No change to the program can move the reference.
func reference() time.Duration {
	start := time.Now()
	rng := uint64(1)
	m := make(map[uint64]uint64)
	table := make([]uint64, 1<<19)
	var small [][]byte
	for i := range 1 << 19 {
		rng = rng*6364136223846793005 + 1442695040888963407
		k := rng >> 33
		m[k&0x3ffff] += k
		table[int(k)&(len(table)-1)] ^= rng
		if i%8 == 0 {
			small = append(small, make([]byte, 48))
			if len(small) == 1<<15 {
				small = small[:0]
			}
		}
	}
	slices.Sort(table)
	referenceSink += table[len(table)/2] + uint64(len(m))
	return time.Since(start)
}
