package experiments

import (
	"fmt"

	"zng/internal/campaign"
	"zng/internal/config"
	"zng/internal/flash"
	"zng/internal/ftl"
	"zng/internal/platform"
	"zng/internal/sim"
	"zng/internal/stats"
	"zng/internal/workload"
)

// Fig13Sweep reproduces the Section V-D sensitivity study: sweep the
// access monitor's high and low waste thresholds and report ZnG IPC on
// betw-back. The paper lands on high=0.3, low=0.05.
func Fig13Sweep(o Options) (*stats.Table, error) {
	highs := []float64{0.1, 0.3, 0.5, 0.8}
	lows := []float64{0.01, 0.05, 0.2}
	spec := campaign.Spec{Platforms: kindNames(platform.ZnG), Scenarios: []string{"betw-back"}}
	for _, hi := range highs {
		for _, lo := range lows {
			spec.Overrides = append(spec.Overrides, campaign.Override{Name: fmt.Sprintf("hi%g+lo%g", hi, lo),
				Config: fmt.Appendf(nil, `{"Prefetch":{"HighWaste":%g,"LowWaste":%g}}`, hi, lo)})
		}
	}
	cells, err := runGrid(o, spec)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 13 (Sec V-D): prefetch threshold sweep, ZnG IPC on betw-back",
		"high \\ low", fmt.Sprint(lows[0]), fmt.Sprint(lows[1]), fmt.Sprint(lows[2]))
	for i, hi := range highs {
		row := []any{fmt.Sprint(hi)}
		for j := range lows {
			row = append(row, cells[i*len(lows)+j].Result.IPC)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationWriteNet compares the three flash-register interconnects of
// Section IV-C — SWnet, FCnet and NiF — on the write-heavy pairs.
func AblationWriteNet(o Options) (*stats.Table, error) {
	nets := []config.RegCacheNet{config.SWnet, config.FCnet, config.NiF}
	pairs := []string{"betw-back", "bfs4-back"}
	spec := campaign.Spec{Platforms: kindNames(platform.ZnG), Scenarios: pairs}
	for _, net := range nets {
		spec.Overrides = append(spec.Overrides, campaign.Override{Name: net.String(),
			Config: fmt.Appendf(nil, `{"RegCache":{"Net":%d}}`, net)})
	}
	cells, err := runGrid(o, spec)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation A: register interconnect (ZnG IPC)",
		"workload", "SWnet", "FCnet", "NiF", "migrations (NiF)")
	for p, pn := range pairs {
		row := []any{pn}
		var migr float64
		for n, net := range nets {
			r := cells[n*len(pairs)+p].Result
			row = append(row, r.IPC)
			if net == config.NiF {
				migr = r.Extra["reg_migrations"]
			}
		}
		row = append(row, migr)
		t.AddRow(row...)
	}
	return t, nil
}

// AblationConsolidation sweeps the co-run degree of the consolidation
// scenarios (consol-1 … consol-4): ZnG versus HybridGPU aggregate IPC
// as one, two, three and four applications share the GPU, each IPC
// also normalized to that platform's solo run. The paper evaluates
// only 2-app co-runs; this ablation extends the axis the scenario
// subsystem opens up and quantifies how much more gracefully ZnG's
// direct flash path absorbs consolidation than HybridGPU's
// engine-throttled one.
func AblationConsolidation(o Options) (*stats.Table, error) {
	spec := campaign.Spec{Platforms: kindNames(platform.HybridGPU, platform.ZnG)}
	for d := 1; d <= workload.ConsolidationDegrees; d++ {
		m, err := workload.ConsolidationMix(d)
		if err != nil {
			return nil, err
		}
		spec.Scenarios = append(spec.Scenarios, m.Name)
	}
	cells, err := runGrid(o, spec)
	if err != nil {
		return nil, err
	}
	// Cells come degree by degree, so each kind's IPCs append in
	// degree order.
	ipc := map[platform.Kind][]float64{}
	for _, c := range cells {
		ipc[c.Cell.Kind] = append(ipc[c.Cell.Kind], c.Result.IPC)
	}
	t := stats.NewTable("Ablation D: consolidation sweep (aggregate IPC vs co-run degree)",
		"mix", "degree", "HybridGPU", "ZnG", "HybridGPU (vs solo)", "ZnG (vs solo)")
	for d, name := range spec.Scenarios {
		hyb, zng := ipc[platform.HybridGPU][d], ipc[platform.ZnG][d]
		t.AddRow(name, d+1, hyb, zng,
			hyb/ipc[platform.HybridGPU][0], zng/ipc[platform.ZnG][0])
	}
	return t, nil
}

// AblationGC hammers a deliberately tiny flash geometry with rewrites
// to exercise the split FTL's helper-thread merges, and reports GC
// cost and wear-levelling effectiveness. It shrinks the Table I
// defaults itself, so it reads nothing from the options.
func AblationGC(Options) (*stats.Table, error) {
	eng := sim.NewEngine()
	fcfg := config.Default().Flash
	fcfg.Channels = 4
	fcfg.DiesPerPkg = 2
	fcfg.PlanesPerDie = 2
	fcfg.BlocksPerPl = 64
	fcfg.PagesPerBlock = 16
	fcfg.ReadLat, fcfg.ProgramLat, fcfg.EraseLat = 30, 1000, 3000
	bb := flash.New(eng, fcfg)
	split := ftl.NewSplit(eng, bb, config.Default().FTL)

	const writes = 4000
	for i := 0; i < writes; i++ {
		va := uint64(i%64) * 4096
		split.WritePage(va, nil, nil)
		eng.Run()
	}
	t := stats.NewTable("Ablation B: split-FTL garbage collection",
		"metric", "value")
	t.AddRow("page writes", writes)
	t.AddRow("log merges", split.Merges.Value())
	t.AddRow("merge programs", split.MergePrograms.Value())
	t.AddRow("stalled writes", split.StalledWrites.Value())
	t.AddRow("max block erase count", split.MaxEraseCount())
	t.AddRow("free blocks remaining", split.FreeBlocks())
	t.AddRow("write amplification", float64(split.MergePrograms.Value()+uint64(writes))/float64(writes))
	return t, nil
}

// AblationL2 sweeps the ZnG L2 capacity: the 6 MB SRAM baseline, the
// Table I 24 MB STT-MRAM, and half/double variants, on a read-heavy
// pair. Sizes print exactly, so the docs regime's 0.75 MB L2 is not 0.
// Each size is a multiple of o.Cfg's SRAM L2 sets.
func AblationL2(o Options) (*stats.Table, error) {
	mults := []int{1, 2, 4, 8}
	spec := campaign.Spec{Platforms: kindNames(platform.ZnG), Scenarios: []string{"bfs1-gaus"}}
	for _, mult := range mults {
		spec.Overrides = append(spec.Overrides, campaign.Override{Name: fmt.Sprintf("l2x%d", mult),
			Config: fmt.Appendf(nil, `{"L2STT":{"Sets":%d}}`, o.Cfg.L2SRAM.Sets*mult)})
	}
	cells, err := runGrid(o, spec)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation C: ZnG L2 capacity sweep (bfs1-gaus)",
		"L2 config", "size (MB)", "IPC", "L2 hit rate")
	for i, c := range cells {
		sizeMB := float64(c.Cell.Cfg.L2STT.SizeBytes()) / (1 << 20)
		t.AddRow(fmt.Sprintf("%dx SRAM sets", mults[i]), sizeMB, c.Result.IPC, c.Result.L2HitRate)
	}
	return t, nil
}
