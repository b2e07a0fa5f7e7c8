// Package prefetch implements ZnG's dynamic read-prefetch module
// (Section IV-B, Fig. 8a): a PC-indexed predictor table that detects
// warps streaming through flash pages, a cutoff test deciding when an
// L2 miss should pull more of the already-sensed flash page into the
// STT-MRAM L2, and an access monitor that watches prefetch waste
// through the L2 tag-array extension bits and adjusts the prefetch
// granularity (halve above the high waste threshold, grow by 1 KB
// below the low one; the paper's sweep lands on 0.3 / 0.05).
//
// The unit is pure decision logic: the platform's flash controller
// asks OnMiss how far to widen each L2 fill, the L2's OnEvict hook
// feeds the access monitor, and the platform performs the actual
// flash fetches, so the same unit drives any backend.
package prefetch

import (
	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/stats"
)

// PageBytes is the flash page size whose spatial locality the
// predictor tracks.
const PageBytes = 4096

type warpSlot struct {
	warp int
	page uint64
	used bool
}

type entry struct {
	pc      uint64
	valid   bool
	counter int
	slots   []warpSlot
}

// Unit is the dynamic read-prefetch module.
type Unit struct {
	cfg   config.Prefetch
	table []entry
	gran  int
	cmax  int

	// Access-monitor window state.
	evicted int
	unused  int

	// Statistics.
	Issued    stats.Counter // prefetch decisions taken
	Decisions stats.Counter // cutoff tests performed
	Grows     stats.Counter
	Shrinks   stats.Counter
}

// New builds a unit with the Table/Section IV-B configuration.
func New(cfg config.Prefetch) *Unit {
	return &Unit{
		cfg:   cfg,
		table: make([]entry, cfg.TableEntries),
		gran:  cfg.InitialBytes,
		cmax:  1<<cfg.CounterBits - 1,
	}
}

// Granularity reports the current prefetch extent in bytes.
func (u *Unit) Granularity() int { return u.gran }

func (u *Unit) entryFor(pc uint64) *entry {
	idx := (pc ^ pc>>9 ^ pc>>18) % uint64(len(u.table))
	return &u.table[idx]
}

// OnMiss observes an L2 demand read miss, updates the predictor, and
// runs the cutoff test. It returns the byte extent the caller should
// prefetch (0 = no prefetch). The extent never crosses the flash page
// holding the miss: the page is sensed as a unit anyway, so prefetch
// only widens the register-to-L2 transfer.
func (u *Unit) OnMiss(r *mem.Request) int {
	u.Decisions.Inc()
	e := u.entryFor(r.PC)
	page := r.Addr / PageBytes

	if !e.valid || e.pc != r.PC {
		*e = entry{pc: r.PC, valid: true, slots: make([]warpSlot, u.cfg.WarpSlots)}
	}

	// Track the five *representative* warps (Section IV-B): the first
	// warps to touch the entry claim its slots and keep them. Other
	// warps share the counter's prefetch decision but do not perturb
	// it — otherwise 96 warps churning 5 slots would erase every
	// same-page observation before it repeats.
	slot := -1
	for i := range e.slots {
		if e.slots[i].used && e.slots[i].warp == r.Warp {
			slot = i
			break
		}
	}
	if slot < 0 {
		for i := range e.slots {
			if !e.slots[i].used {
				slot = i
				break
			}
		}
	}
	if slot >= 0 {
		s := &e.slots[slot]
		if s.used && s.page == page {
			if e.counter < u.cmax {
				e.counter++
			}
		} else if s.used {
			if e.counter > 0 {
				e.counter--
			}
		}
		s.used, s.warp, s.page = true, r.Warp, page
	}

	if e.counter <= u.cfg.CutoffThresh {
		return 0
	}
	// Prefetch the next gran bytes of this flash page, starting past
	// the missing line.
	pageEnd := (page + 1) * PageBytes
	start := r.Addr + 128
	if start >= pageEnd {
		return 0
	}
	ext := uint64(u.gran)
	if start+ext > pageEnd {
		ext = pageEnd - start
	}
	if ext == 0 {
		return 0
	}
	u.Issued.Inc()
	return int(ext)
}

// OnEvict observes an L2 eviction through the tag-extension bits and
// runs the access monitor: every MonitorWindow evicted prefetch lines,
// the waste ratio (unused/evicted) moves the granularity.
func (u *Unit) OnEvict(info cache.EvictInfo) {
	if !info.Prefetch {
		return
	}
	u.evicted++
	if !info.Accessed {
		u.unused++
	}
	if u.evicted < u.cfg.MonitorWindow {
		return
	}
	waste := float64(u.unused) / float64(u.evicted)
	switch {
	case waste > u.cfg.HighWaste:
		if g := u.gran / 2; g >= u.cfg.MinBytes {
			u.gran = g
			u.Shrinks.Inc()
		}
	case waste < u.cfg.LowWaste:
		if g := u.gran + u.cfg.GrowBytes; g <= u.cfg.MaxBytes {
			u.gran = g
			u.Grows.Inc()
		}
	}
	u.evicted, u.unused = 0, 0
}
