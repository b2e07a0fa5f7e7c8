package workload

import (
	"fmt"
	"sync"
)

// Specs transcribes Table II (read ratio, kernel count) and attaches
// the locality calibration derived from Fig. 5: per-application read
// re-use targets spreading around the reported ~42 average and write
// redundancy targets spreading around the reported ~65 average.
//
// Graph-analysis applications [23] are read-intensive; the scientific
// kernels back/gaus [24] and FDT/gram [25] carry the write traffic of
// the co-run pairs.
func Specs() []Spec {
	return []Spec{
		{Name: "betw", Suite: "graph", ReadRatio: 0.98, Kernels: 11, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 55, WriteRedund: 110, SeqFrac: 0.25, RandSectors: 4, ALUMean: 8, Seed: 101},
		{Name: "bfs1", Suite: "graph", ReadRatio: 0.95, Kernels: 7, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 35, WriteRedund: 80, SeqFrac: 0.30, RandSectors: 4, ALUMean: 6, Seed: 102},
		{Name: "bfs2", Suite: "graph", ReadRatio: 0.99, Kernels: 9, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 60, WriteRedund: 100, SeqFrac: 0.28, RandSectors: 4, ALUMean: 6, Seed: 103},
		{Name: "bfs3", Suite: "graph", ReadRatio: 0.88, Kernels: 10, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 25, WriteRedund: 70, SeqFrac: 0.30, RandSectors: 4, ALUMean: 6, Seed: 104},
		{Name: "bfs4", Suite: "graph", ReadRatio: 0.97, Kernels: 12, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 40, WriteRedund: 90, SeqFrac: 0.30, RandSectors: 4, ALUMean: 6, Seed: 105},
		{Name: "bfs5", Suite: "graph", ReadRatio: 0.99, Kernels: 6, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 70, WriteRedund: 120, SeqFrac: 0.28, RandSectors: 4, ALUMean: 6, Seed: 106},
		{Name: "bfs6", Suite: "graph", ReadRatio: 0.97, Kernels: 7, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 45, WriteRedund: 95, SeqFrac: 0.30, RandSectors: 4, ALUMean: 6, Seed: 107},
		{Name: "gc1", Suite: "graph", ReadRatio: 0.98, Kernels: 8, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 30, WriteRedund: 85, SeqFrac: 0.22, RandSectors: 4, ALUMean: 8, Seed: 108},
		{Name: "gc2", Suite: "graph", ReadRatio: 0.99, Kernels: 10, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 50, WriteRedund: 105, SeqFrac: 0.22, RandSectors: 4, ALUMean: 8, Seed: 109},
		{Name: "sssp3", Suite: "graph", ReadRatio: 0.98, Kernels: 8, WarpsPerKernel: 96, MemInstBudget: 60000, ReadReuse: 38, WriteRedund: 88, SeqFrac: 0.25, RandSectors: 4, ALUMean: 7, Seed: 110},
		{Name: "deg", Suite: "graph", ReadRatio: 1.00, Kernels: 1, WarpsPerKernel: 128, MemInstBudget: 50000, ReadReuse: 15, WriteRedund: 1, SeqFrac: 0.55, RandSectors: 3, ALUMean: 5, Seed: 111},
		{Name: "pr", Suite: "graph", ReadRatio: 0.99, Kernels: 53, WarpsPerKernel: 64, MemInstBudget: 70000, ReadReuse: 75, WriteRedund: 130, SeqFrac: 0.35, RandSectors: 4, ALUMean: 7, Seed: 112},
		{Name: "back", Suite: "sci", ReadRatio: 0.57, Kernels: 1, WarpsPerKernel: 128, MemInstBudget: 40000, ReadReuse: 30, WriteRedund: 55, SeqFrac: 0.60, RandSectors: 2, ALUMean: 12, Seed: 113},
		{Name: "gaus", Suite: "sci", ReadRatio: 0.66, Kernels: 3, WarpsPerKernel: 128, MemInstBudget: 40000, ReadReuse: 35, WriteRedund: 45, SeqFrac: 0.65, RandSectors: 2, ALUMean: 14, Seed: 114},
		{Name: "FDT", Suite: "sci", ReadRatio: 0.73, Kernels: 1, WarpsPerKernel: 128, MemInstBudget: 40000, ReadReuse: 28, WriteRedund: 40, SeqFrac: 0.60, RandSectors: 2, ALUMean: 12, Seed: 115},
		{Name: "gram", Suite: "sci", ReadRatio: 0.75, Kernels: 3, WarpsPerKernel: 128, MemInstBudget: 40000, ReadReuse: 32, WriteRedund: 35, SeqFrac: 0.60, RandSectors: 2, ALUMean: 12, Seed: 116},
	}
}

// FamilySpecs lists the applications beyond Table II that the scenario
// subsystem adds: the OLTP transaction-stream family (calibrated
// against the GPU-OLTP related work rather than Table II) and the pure
// read/write stress generators behind the stress mixes.
func FamilySpecs() []Spec {
	return []Spec{
		// oltp: small read-modify-write transactions — three
		// single-sector row reads then one scattered row update
		// (ReadRatio 0.75 = 3/(3+1) exactly, by construction). Low
		// re-use and low redundancy relative to the graph suite: the
		// working set is hot rows, not whole revisited pages.
		{Name: "oltp", Suite: "tx", Family: FamilyOLTP, ReadRatio: 0.75, Kernels: 4, WarpsPerKernel: 96, MemInstBudget: 50000, ReadReuse: 12, WriteRedund: 8, SeqFrac: 0, RandSectors: 1, ALUMean: 10, Seed: 202},
		// rdstress / wrstress: single-sided generators for the
		// read-only and write-only stress mixes.
		{Name: "rdstress", Suite: "stress", ReadRatio: 1.00, Kernels: 2, WarpsPerKernel: 128, MemInstBudget: 50000, ReadReuse: 20, WriteRedund: 1, SeqFrac: 0.50, RandSectors: 4, ALUMean: 4, Seed: 203},
		{Name: "wrstress", Suite: "stress", ReadRatio: 0.00, Kernels: 2, WarpsPerKernel: 128, MemInstBudget: 40000, ReadReuse: 1, WriteRedund: 40, SeqFrac: 0, RandSectors: 1, ALUMean: 4, Seed: 204},
	}
}

// AllSpecs returns every runnable application: the sixteen Table II
// apps followed by the scenario-subsystem families.
func AllSpecs() []Spec {
	return append(Specs(), FamilySpecs()...)
}

// specIndex builds the name lookup exactly once; both spec slices are
// static, so the map never invalidates.
var specIndex = sync.OnceValue(func() map[string]Spec {
	m := make(map[string]Spec)
	for _, s := range AllSpecs() {
		if _, dup := m[s.Name]; dup {
			panic(fmt.Sprintf("workload: duplicate spec name %q", s.Name))
		}
		m[s.Name] = s
	}
	return m
})

// SpecByName returns the application spec with the given name, looking
// across Table II and the scenario families.
func SpecByName(name string) (Spec, error) {
	s, ok := specIndex()[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown application %q", name)
	}
	return s, nil
}
