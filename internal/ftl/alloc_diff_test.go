package ftl

import (
	"testing"

	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/rng"
	"zng/internal/sim"
)

// newPlaneAlloc builds one plane's allocator with blocks [firstFree,
// blocks) free.
func newPlaneAlloc(p *flash.Plane, firstFree, blocks int) *planeAlloc {
	return &planeAlloc{plane: p, count: blocks - firstFree, fresh: firstFree, blocks: blocks}
}

// refPlaneAlloc is the allocator the lazy one replaced: every block is
// queued in bucket 0 at construction, buckets live in a map.
type refPlaneAlloc struct {
	plane   *flash.Plane
	buckets map[int]*allocBucket
	minEC   int
	count   int
}

func newRefPlaneAlloc(p *flash.Plane, firstFree, blocks int) *refPlaneAlloc {
	b := &allocBucket{}
	for i := firstFree; i < blocks; i++ {
		b.blocks = append(b.blocks, i)
	}
	return &refPlaneAlloc{plane: p, buckets: map[int]*allocBucket{0: b}, count: len(b.blocks)}
}

func (a *refPlaneAlloc) pop() (int, bool) {
	for a.count > 0 {
		b := a.buckets[a.minEC]
		for b == nil || b.empty() {
			a.minEC++
			b = a.buckets[a.minEC]
		}
		blk := b.blocks[b.head]
		b.head++
		if b.head == len(b.blocks) {
			b.blocks, b.head = b.blocks[:0], 0
		}
		a.count--
		if a.plane.Block(blk).EraseCount != a.minEC {
			a.push(blk)
			continue
		}
		return blk, true
	}
	return 0, false
}

func (a *refPlaneAlloc) push(blk int) {
	ec := a.plane.Block(blk).EraseCount
	b := a.buckets[ec]
	if b == nil {
		b = &allocBucket{}
		a.buckets[ec] = b
	}
	b.blocks = append(b.blocks, blk)
	if ec < a.minEC {
		a.minEC = ec
	}
	a.count++
}

// TestPlaneAllocDifferential drives the lazy allocator and the eager
// reference in lockstep over one plane: allocations, erase-and-free,
// and out-of-band wear of blocks still on the free list (which both
// must refile). Every popped block and free count must agree.
func TestPlaneAllocDifferential(t *testing.T) {
	cfg := config.Default().Flash
	cfg.Channels, cfg.DiesPerPkg, cfg.PlanesPerDie = 1, 1, 1
	cfg.BlocksPerPl, cfg.PagesPerBlock = 40, 4
	for _, firstFree := range []int{0, 3} {
		bb := flash.New(sim.NewEngine(), cfg)
		p := bb.Plane(0)
		lazy := newPlaneAlloc(p, firstFree, cfg.BlocksPerPl)
		ref := newRefPlaneAlloc(p, firstFree, cfg.BlocksPerPl)
		r := rng.New(uint64(firstFree) + 7)
		var held []int
		for op := 0; op < 5000; op++ {
			switch k := r.Intn(10); {
			case k < 5:
				got, ok := lazy.pop()
				want, wok := ref.pop()
				if got != want || ok != wok {
					t.Fatalf("first free %d op %d: pop = %d,%v, reference %d,%v", firstFree, op, got, ok, want, wok)
				}
				if ok {
					held = append(held, got)
				}
			case k < 9 && len(held) > 0:
				i := r.Intn(len(held))
				blk := held[i]
				held = append(held[:i], held[i+1:]...)
				if err := p.Erase(blk, nil, nil); err != nil {
					continue // worn out: retired, never freed
				}
				lazy.push(blk)
				ref.push(blk)
			default:
				// Wear a random block out of band, free or not.
				_ = p.Erase(r.Intn(cfg.BlocksPerPl), nil, nil)
			}
			if lazy.freeCount() != ref.count {
				t.Fatalf("first free %d op %d: freeCount = %d, reference %d", firstFree, op, lazy.freeCount(), ref.count)
			}
		}
	}
}
