// Package gpu models the streaming multiprocessors of the simulated
// GTX580-class GPU (Table I): 16 SMs at 1.2 GHz, up to 80 resident
// warps each, one instruction issued per SM per cycle, a private L1D
// per SM, and address translation through the shared MMU before the
// caches (Section II-A).
//
// The model is warp-level and event-driven: arithmetic runs occupy the
// SM issue pipeline for their run length (other warps fill the gaps,
// which is how thread-level parallelism hides memory latency), and a
// warp blocks until its memory instruction's coalesced sectors all
// complete. IPC is instructions retired over elapsed cycles — the
// metric Fig. 10 normalizes.
package gpu

import (
	"zng/internal/cache"
	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/mmu"
	"zng/internal/sim"
	"zng/internal/stats"
	"zng/internal/workload"
)

// GPU is the multiprocessor array plus per-SM L1 caches.
type GPU struct {
	eng *sim.Engine
	cfg config.GPU
	mmu *mmu.Unit
	l1s []*cache.Cache

	// In-flight records: one request per coalesced sector and one
	// memInst per memory instruction, recycled on completion.
	reqs  sim.FreeList[mem.Request]
	insts sim.FreeList[memInst]

	sms  []*sm
	apps []*appRun

	Insts   stats.Counter
	start   sim.Tick
	end     sim.Tick
	running int
}

type sm struct {
	id    int
	issue *sim.Resource
}

type appRun struct {
	g      *GPU
	app    *workload.App
	smIDs  []int
	kernel int
	live   int // running warps in the current kernel

	// warps holds one context per warp slot, reused by every kernel:
	// a kernel starts only once all of its predecessor's warps retired.
	warps []warpCtx
}

// New builds a GPU whose SMs translate through mmuU and access l1cfg
// caches backed by l2.
func New(eng *sim.Engine, cfg config.GPU, l1cfg config.Cache, mmuU *mmu.Unit, l2 mem.Memory) *GPU {
	g := &GPU{eng: eng, cfg: cfg, mmu: mmuU}
	for i := 0; i < cfg.SMs; i++ {
		g.sms = append(g.sms, &sm{id: i, issue: sim.NewResource(eng)})
		g.l1s = append(g.l1s, cache.New(eng, l1cfg, l2, "L1D"))
	}
	return g
}

// Launch starts the given applications concurrently, partitioning the
// SMs evenly among them (the multi-app co-run of Section V-A). It must
// be called once, before the engine runs.
func (g *GPU) Launch(apps ...*workload.App) {
	if len(apps) == 0 || len(apps) > len(g.sms) {
		panic("gpu: need between 1 and SMs applications")
	}
	g.start = g.eng.Now()
	per := len(g.sms) / len(apps)
	for i, a := range apps {
		run := &appRun{g: g, app: a}
		lo := i * per
		hi := lo + per
		if i == len(apps)-1 {
			hi = len(g.sms)
		}
		for s := lo; s < hi; s++ {
			run.smIDs = append(run.smIDs, s)
		}
		g.apps = append(g.apps, run)
		g.running++
	}
	for _, run := range g.apps {
		run.startKernel()
	}
}

// Cycles reports elapsed cycles from launch to the last app's finish
// (or now, while running).
func (g *GPU) Cycles() sim.Tick {
	if g.running == 0 && g.end > g.start {
		return g.end - g.start
	}
	return g.eng.Now() - g.start
}

// IPC reports retired instructions per cycle across all SMs.
func (g *GPU) IPC() float64 {
	c := g.Cycles()
	if c == 0 {
		return 0
	}
	return float64(g.Insts.Value()) / float64(c)
}

// Done reports whether every launched app has finished.
func (g *GPU) Done() bool { return g.running == 0 && len(g.apps) > 0 }

// Handle implements sim.Handler: the kernel barrier has elapsed.
func (r *appRun) Handle(any) { r.startKernel() }

func (r *appRun) startKernel() {
	warps := r.app.Warps()
	r.live = warps
	if r.warps == nil {
		r.warps = make([]warpCtx, warps)
	}
	for w := range r.warps {
		wc := &r.warps[w]
		*wc = warpCtx{
			run: r,
			sm:  r.g.sms[r.smIDs[w%len(r.smIDs)]],
			id:  r.app.Index<<20 | r.kernel<<10 | w,
		}
		r.app.ResetStream(&wc.stream, r.kernel, w)
		// Stagger warp starts by a cycle to avoid a synchronized stampede.
		r.g.eng.Schedule(sim.Tick(w%workload.SectorBytes), wc, nil)
	}
}

func (r *appRun) warpDone() {
	r.live--
	if r.live > 0 {
		return
	}
	r.kernel++
	if r.kernel < r.app.Kernels() {
		// Kernel barrier: the next launch begins once all warps retire.
		r.g.eng.Schedule(1, r, nil)
		return
	}
	r.g.running--
	if r.g.running == 0 {
		r.g.end = r.g.eng.Now()
	}
}

type warpCtx struct {
	run    *appRun
	sm     *sm
	stream workload.Stream
	id     int

	// pendingMem counts memory instructions in flight; a warp stalls
	// only once it reaches cfg.MaxPerWarpMem outstanding (real SMs
	// let a warp run ahead until a use-dependency).
	pendingMem int
	blocked    bool
	draining   bool

	// The instruction occupying the issue pipeline. acc aliases the
	// stream's buffer, which stays valid until the next fetch — and the
	// warp fetches again only after this instruction has issued.
	issuing bool
	pc      uint64
	acc     []workload.Access
}

// memInst tracks one memory instruction's outstanding sectors; it is
// the Done handler of each of their requests.
type memInst struct {
	w           *warpCtx
	outstanding int
}

// translated hands a request whose address the MMU has translated to
// its SM's L1.
type translated struct{ g *GPU }

func (h translated) Handle(arg any) {
	r := arg.(*mem.Request)
	h.g.l1s[r.SM].Access(r)
}

// Handle implements sim.Handler: the warp's next event is either the
// fetch of its next instruction or, while one occupies the issue
// pipeline, that instruction's issue.
func (w *warpCtx) Handle(any) {
	if w.issuing {
		w.issuing = false
		w.issue()
		return
	}
	w.step()
}

// step fetches and executes the warp's next instruction.
func (w *warpCtx) step() {
	inst, ok := w.stream.Next()
	if !ok {
		if w.pendingMem > 0 {
			w.draining = true
			return
		}
		w.run.warpDone()
		return
	}
	// The arithmetic run plus the memory instruction occupy the issue
	// pipeline; each slot is one retired instruction.
	cost := sim.Tick(inst.ALU)
	insts := inst.ALU
	if len(inst.Acc) > 0 {
		cost++
		insts++
	}
	if cost < 1 {
		cost, insts = 1, 1
	}
	w.run.g.Insts.Add(uint64(insts))
	w.issuing, w.pc, w.acc = true, inst.PC, inst.Acc
	w.sm.issue.Acquire(cost, w, nil)
}

// issue sends the issued instruction's sectors to the MMU and runs
// ahead, or stalls at the outstanding-instruction limit.
func (w *warpCtx) issue() {
	g := w.run.g
	acc := w.acc
	w.acc = nil
	if len(acc) == 0 {
		g.eng.Schedule(0, w, nil)
		return
	}
	w.pendingMem++
	m := g.insts.Get()
	m.w, m.outstanding = w, len(acc)
	for _, a := range acc {
		r := g.reqs.Get()
		r.Addr, r.Size, r.Write = a.Addr, workload.SectorBytes, a.Write
		r.PC, r.Warp, r.SM, r.Done = w.pc, w.id, w.sm.id, m
		g.mmu.Request(w.sm.id, r, translated{g})
	}
	if w.pendingMem < g.cfg.MaxPerWarpMem {
		// Run ahead to the next instruction.
		g.eng.Schedule(1, w, nil)
	} else {
		w.blocked = true
	}
}

// Handle implements sim.Handler: one of the instruction's sectors
// completed.
func (m *memInst) Handle(arg any) {
	w := m.w
	g := w.run.g
	g.reqs.Put(arg.(*mem.Request))
	m.outstanding--
	if m.outstanding == 0 {
		g.insts.Put(m)
		w.memDone()
	}
}

// memDone retires one memory instruction and resumes the warp if it
// was stalled on the outstanding limit (or finishes it when draining).
func (w *warpCtx) memDone() {
	g := w.run.g
	w.pendingMem--
	if w.draining {
		if w.pendingMem == 0 {
			w.run.warpDone()
		}
		return
	}
	if w.blocked {
		w.blocked = false
		g.eng.Schedule(1, w, nil)
	}
}
