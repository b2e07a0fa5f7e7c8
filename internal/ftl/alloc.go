// Package ftl implements the two flash translation layers the ZnG
// evaluation compares:
//
//   - Split: the paper's zero-overhead FTL (Section III-B/IV-A). A
//     read-only data-block mapping table (DBMT) lives in the GPU MMU;
//     writes are remapped by the programmable row decoders of per-
//     group log blocks (LPMT); the log-block mapping table (LBMT)
//     groups several data blocks per log block; and a GPU helper
//     thread performs garbage collection and wear-levelled block
//     allocation.
//
//   - PageMapped: the monolithic page-mapped FTL that the HybridGPU
//     SSD engine executes in firmware.
//
// Both keep real per-block state in internal/flash, so erase-before-
// write, in-order programming and P/E endurance are enforced by the
// substrate, not assumed.
package ftl

import (
	"zng/internal/flash"
)

// planeAlloc hands out free blocks of one plane, lowest-erase-count
// first (the wear-levelling policy of Section IV-A).
//
// Free blocks are bucketed by erase count, each bucket a FIFO in push
// order. A block's erase count never changes while it sits in the free
// list (erases happen just before push), so pop — drain the lowest
// non-empty bucket front to back — returns exactly what the previous
// O(n) free-list scan did: the earliest-freed block among those with
// the least wear. Block allocation sits on the read path's first-touch
// (Split.dataBlock) and was the hottest function in whole-platform
// profiles; bucketing makes pop O(1).
//
// The never-allocated blocks [fresh, blocks) are the implicit front of
// bucket 0: they are free from the start, so they precede any block
// freed later, and a plane costs no per-block memory until its blocks
// are used.
type planeAlloc struct {
	plane   *flash.Plane
	buckets []allocBucket // index = erase count
	minEC   int           // lowest erase count that may have a non-empty bucket
	count   int

	fresh, blocks int
}

// allocBucket is a FIFO of block ids sharing one erase count. head
// indexes the next block to hand out; storage is reclaimed when the
// bucket drains.
type allocBucket struct {
	blocks []int
	head   int
}

func (b *allocBucket) empty() bool { return b.head == len(b.blocks) }

// newPlaneAllocs builds one allocator per plane of bb, every block
// free, in two allocations rather than one per plane.
func newPlaneAllocs(bb *flash.Backbone) []*planeAlloc {
	allocs := make([]planeAlloc, bb.Planes())
	ptrs := make([]*planeAlloc, len(allocs))
	for i := range allocs {
		allocs[i] = planeAlloc{plane: bb.Plane(i), count: bb.Cfg.BlocksPerPl, blocks: bb.Cfg.BlocksPerPl}
		ptrs[i] = &allocs[i]
	}
	return ptrs
}

// pop removes and returns the free block with the lowest erase count
// (FIFO among equals). Bucket keys are fixed at push time, so pop
// re-validates: a block worn out-of-band while it sat free (erase
// counts only ever grow) is refiled under its current count instead of
// being handed out ahead of fresher blocks. Refiling is rare and each
// refile strictly raises the block's bucket, so pop stays O(1)
// amortized.
func (a *planeAlloc) pop() (int, bool) {
	for a.count > 0 {
		a.count--
		var blk int
		if a.minEC == 0 && a.fresh < a.blocks {
			blk = a.fresh
			a.fresh++
		} else {
			for a.minEC >= len(a.buckets) || a.buckets[a.minEC].empty() {
				a.minEC++
			}
			b := &a.buckets[a.minEC]
			blk = b.blocks[b.head]
			b.head++
			if b.head == len(b.blocks) {
				b.blocks, b.head = b.blocks[:0], 0
			}
		}
		if a.plane.Block(blk).EraseCount != a.minEC {
			a.push(blk)
			continue
		}
		return blk, true
	}
	return 0, false
}

// push returns a block to the free list under its current erase count.
func (a *planeAlloc) push(blk int) {
	ec := a.plane.Block(blk).EraseCount
	for ec >= len(a.buckets) {
		a.buckets = append(a.buckets, allocBucket{})
	}
	b := &a.buckets[ec]
	b.blocks = append(b.blocks, blk)
	if ec < a.minEC {
		a.minEC = ec
	}
	a.count++
}

// freeCount reports available blocks.
func (a *planeAlloc) freeCount() int { return a.count }
