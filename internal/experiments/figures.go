package experiments

import (
	"fmt"

	"zng/internal/campaign"
	"zng/internal/platform"
	"zng/internal/stats"
	"zng/internal/workload"
)

// Fig5a measures the performance degradation of serving GPU memory
// requests directly from Z-NAND (ZnG-base, no buffering optimization)
// relative to conventional GDDR5, per co-run workload (Fig. 5a).
func Fig5a(o Options) (*stats.Table, error) {
	res, err := runMixes(o, platform.GDDR5, platform.ZnGBase)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 5a: performance degradation of direct Z-NAND vs GDDR5",
		"workload", "GDDR5 IPC", "direct Z-NAND IPC", "degradation (x)")
	for _, m := range o.Mixes {
		g := res[platform.GDDR5][m.Name]
		z := res[platform.ZnGBase][m.Name]
		d := 0.0
		if z.IPC > 0 {
			d = g.IPC / z.IPC
		}
		t.AddRow(m.Name, g.IPC, z.IPC, d)
	}
	return t, nil
}

// Fig5bcd characterizes the traces: read re-accesses per page
// (Fig. 5b), write redundancy per page (Fig. 5c), and the read/write
// access mix (Fig. 5d).
func Fig5bcd(o Options) (*stats.Table, error) {
	t := stats.NewTable("Fig. 5b-d: workload locality characterization",
		"workload", "read re-accesses", "write redundancy", "read %", "write %")
	var reuse, redund float64
	for _, m := range o.Mixes {
		apps, err := m.Apps(o.Scale)
		if err != nil {
			return nil, err
		}
		st := workload.Characterize(apps...)
		t.AddRow(m.Name, st.ReadReuse(), st.WriteRedundancy(),
			100*st.ReadRatio(), 100*(1-st.ReadRatio()))
		reuse += st.ReadReuse()
		redund += st.WriteRedundancy()
	}
	n := float64(len(o.Mixes))
	t.AddRow("AVERAGE", reuse/n, redund/n, "", "")
	return t, nil
}

// Fig8b produces the asymmetric per-plane write heatmap of Fig. 8b:
// per-plane program counts for betw-back on the unoptimized register
// path, folded to a 16x16 (channel x plane-group) grid like the
// paper's plot.
func Fig8b(o Options) (*stats.Table, error) {
	cells, err := runGrid(o, campaign.Spec{Platforms: kindNames(platform.ZnGBase), Scenarios: []string{"betw-back"}})
	if err != nil {
		return nil, err
	}
	r := cells[0].Result
	const grid = 16
	channels, planes := o.Cfg.Flash.Channels, o.Cfg.Flash.Planes()
	perCh := planes / channels
	// A cell that never programmed carries no plane counts: every
	// plane reads 0.
	writes := r.PlaneWrites
	if len(writes) == 0 {
		writes = make([]uint64, planes)
	}
	group := (perCh + grid - 1) / grid
	if group < 1 {
		group = 1
	}
	t := stats.NewTable("Fig. 8b: asymmetric Z-NAND writes (betw-back), programs per plane group",
		"channel", "min", "max", "total")
	heat := make([]uint64, (perCh+group-1)/group)
	for ch := 0; ch < channels; ch++ {
		clear(heat)
		for i := 0; i < perCh; i++ {
			heat[i/group] += writes[ch*perCh+i]
		}
		var min, max, tot uint64
		min = ^uint64(0)
		for _, v := range heat {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			tot += v
		}
		t.AddRow(fmt.Sprintf("ch%02d", ch), min, max, tot)
	}
	return t, nil
}

// Fig10 runs the headline experiment: normalized IPC of all seven
// platforms across the twelve co-run workloads (Fig. 10), normalized
// to ZnG like the paper.
func Fig10(o Options) (*stats.Table, error) {
	res, err := runMixes(o, platform.Kinds()...)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 10: normalized IPC (ZnG = 1.0)",
		"workload", "Hetero", "HybridGPU", "Optane", "ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG")
	sums := map[platform.Kind]float64{}
	for _, m := range o.Mixes {
		ref := res[platform.ZnG][m.Name].IPC
		row := []any{m.Name}
		for _, k := range platform.Kinds() {
			v := 0.0
			if ref > 0 {
				v = res[k][m.Name].IPC / ref
			}
			sums[k] += v
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	avg := []any{"AVERAGE"}
	for _, k := range platform.Kinds() {
		avg = append(avg, sums[k]/float64(len(o.Mixes)))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig11 reports the Z-NAND flash-array bandwidth each flash-backed
// platform achieves (Fig. 11).
func Fig11(o Options) (*stats.Table, error) {
	kinds := []platform.Kind{platform.HybridGPU, platform.ZnGBase, platform.ZnGRdopt, platform.ZnGWropt, platform.ZnG}
	res, err := runMixes(o, kinds...)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 11: flash array bandwidth (GB/s)",
		"workload", "HybridGPU", "ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG")
	sums := map[platform.Kind]float64{}
	for _, m := range o.Mixes {
		row := []any{m.Name}
		for _, k := range kinds {
			bw := res[k][m.Name].FlashArrayGBps()
			sums[k] += bw
			row = append(row, bw)
		}
		t.AddRow(row...)
	}
	avg := []any{"AVERAGE"}
	for _, k := range kinds {
		avg = append(avg, sums[k]/float64(len(o.Mixes)))
	}
	t.AddRow(avg...)
	return t, nil
}

// Fig12 examines the ZnG read path: L2 hit rate, prefetch volume and
// register page hits for ZnG-base versus ZnG-rdopt (the read-
// optimization analysis of Section V-C).
func Fig12(o Options) (*stats.Table, error) {
	res, err := runMixes(o, platform.ZnGBase, platform.ZnGRdopt)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Fig. 12: read-path effectiveness (base vs rdopt)",
		"workload", "L2 hit (base)", "L2 hit (rdopt)", "prefetch KB (rdopt)", "array fills (base)", "array fills (rdopt)")
	for _, m := range o.Mixes {
		b := res[platform.ZnGBase][m.Name]
		r := res[platform.ZnGRdopt][m.Name]
		t.AddRow(m.Name, b.L2HitRate, r.L2HitRate,
			r.Extra["prefetch_bytes"]/1024, b.Extra["demand_fills"], r.Extra["demand_fills"])
	}
	return t, nil
}
