package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestTableIITranscription(t *testing.T) {
	specs := Specs()
	if len(specs) != 16 {
		t.Fatalf("len(Specs) = %d, want 16", len(specs))
	}
	want := map[string]struct {
		ratio   float64
		kernels int
	}{
		"betw": {0.98, 11}, "bfs1": {0.95, 7}, "bfs2": {0.99, 9},
		"bfs3": {0.88, 10}, "bfs4": {0.97, 12}, "bfs5": {0.99, 6},
		"bfs6": {0.97, 7}, "gc1": {0.98, 8}, "gc2": {0.99, 10},
		"sssp3": {0.98, 8}, "deg": {1.00, 1}, "pr": {0.99, 53},
		"back": {0.57, 1}, "gaus": {0.66, 3}, "FDT": {0.73, 1},
		"gram": {0.75, 3},
	}
	seen := map[string]bool{}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected app %q", s.Name)
			continue
		}
		if s.ReadRatio != w.ratio || s.Kernels != w.kernels {
			t.Errorf("%s: ratio/kernels = %v/%d, want %v/%d", s.Name, s.ReadRatio, s.Kernels, w.ratio, w.kernels)
		}
		seen[s.Name] = true
	}
	if len(seen) != 16 {
		t.Errorf("missing apps: saw %d", len(seen))
	}
}

func TestPaperPairsMatchPaper(t *testing.T) {
	pairs := PaperPairs()
	if len(pairs) != 12 {
		t.Fatalf("len(PaperPairs) = %d, want 12", len(pairs))
	}
	if pairs[0].Name != "betw-back" || pairs[11].Name != "pr-gaus" {
		t.Errorf("pair order: first %q last %q", pairs[0].Name, pairs[11].Name)
	}
	for _, p := range pairs {
		if p.Degree() != 2 {
			t.Fatalf("%s: degree %d, want 2", p.Name, p.Degree())
		}
		a, err := SpecByName(p.Components[0].App)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		b, err := SpecByName(p.Components[1].App)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if a.Suite != "graph" || b.Suite != "sci" {
			t.Errorf("%s: want graph+sci co-run, got %s+%s", p.Name, a.Suite, b.Suite)
		}
		for _, c := range p.Components {
			if c.Weight != 1 {
				t.Errorf("%s: paper pairs run at weight 1, got %v", p.Name, c.Weight)
			}
		}
	}
}

func TestSpecByNameUnknown(t *testing.T) {
	if _, err := SpecByName("nope"); err == nil {
		t.Error("want error for unknown app")
	}
	if _, err := MixByName("nope"); err == nil {
		t.Error("want error for unknown scenario")
	}
}

func TestScenarioRegistry(t *testing.T) {
	scen := Scenarios()
	names := map[string]bool{}
	for _, m := range scen {
		if names[m.Name] {
			t.Errorf("duplicate scenario name %q", m.Name)
		}
		names[m.Name] = true
		if _, err := m.Apps(0.01); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		got, err := MixByName(m.Name)
		if err != nil {
			t.Errorf("MixByName(%q): %v", m.Name, err)
		} else if got.ID() != m.ID() {
			t.Errorf("MixByName(%q) resolved to %q", m.Name, got.ID())
		}
	}
	// Every application has a solo scenario.
	for _, s := range AllSpecs() {
		if !names["solo-"+s.Name] {
			t.Errorf("missing solo scenario for %s", s.Name)
		}
	}
	// The consolidation sweep covers degrees 1..4 with ascending degree.
	for d := 1; d <= ConsolidationDegrees; d++ {
		m, err := ConsolidationMix(d)
		if err != nil {
			t.Fatal(err)
		}
		if !names[m.Name] {
			t.Errorf("registry missing %s", m.Name)
		}
		if m.Degree() != d {
			t.Errorf("%s: degree %d, want %d", m.Name, m.Degree(), d)
		}
	}
	if _, err := ConsolidationMix(0); err == nil {
		t.Error("want error for consolidation degree 0")
	}
	// Stress mixes are single-sided.
	for name, wantWrites := range map[string]bool{"read-stress": false, "write-stress": true} {
		m, err := MixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps, err := m.Apps(0.05)
		if err != nil {
			t.Fatal(err)
		}
		st := Characterize(apps...)
		if wantWrites && (st.ReadSectors != 0 || st.WriteSectors == 0) {
			t.Errorf("%s: reads=%d writes=%d, want write-only", name, st.ReadSectors, st.WriteSectors)
		}
		if !wantWrites && (st.WriteSectors != 0 || st.ReadSectors == 0) {
			t.Errorf("%s: reads=%d writes=%d, want read-only", name, st.ReadSectors, st.WriteSectors)
		}
	}
}

func TestMixIDCanonical(t *testing.T) {
	m := NewMix("anything", "bfs1", "gaus")
	if got := m.ID(); got != "bfs1+gaus" {
		t.Errorf("ID = %q, want bfs1+gaus (weight-1 components elide the weight)", got)
	}
	w := Mix{Name: "w", Components: []Component{{App: "bfs1", Weight: 0.5}, {App: "gaus", Weight: 1}}}
	if got := w.ID(); got != "bfs1*0.5+gaus" {
		t.Errorf("ID = %q, want bfs1*0.5+gaus", got)
	}
	// Order is part of the identity: address-space indexes differ.
	if NewMix("x", "gaus", "bfs1").ID() == m.ID() {
		t.Error("component order must change the ID")
	}
}

func TestParseApps(t *testing.T) {
	m, err := ParseApps("bfs1, gaus ,pr")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "bfs1+gaus+pr" || m.Degree() != 3 {
		t.Errorf("parsed %q degree %d", m.Name, m.Degree())
	}
	m, err = ParseApps("oltp*2,rdstress")
	if err != nil {
		t.Fatal(err)
	}
	if m.Components[0].Weight != 2 || m.Name != "oltp*2+rdstress" {
		t.Errorf("weighted parse: %+v", m)
	}
	// Whitespace around the weight separator is tolerated like the
	// whitespace around commas.
	m, err = ParseApps("bfs1, oltp * 2")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "bfs1+oltp*2" || m.Components[1].App != "oltp" {
		t.Errorf("spaced weighted parse: %+v", m)
	}
	for _, bad := range []string{"", "nope", "bfs1*0", "bfs1*x"} {
		if _, err := ParseApps(bad); err == nil {
			t.Errorf("ParseApps(%q): want error", bad)
		}
	}
}

func TestMixAppsIndexesAndScale(t *testing.T) {
	m := Mix{Name: "w", Components: []Component{{App: "bfs1", Weight: 1}, {App: "gaus", Weight: 0.5}}}
	apps, err := m.Apps(0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range apps {
		if a.Index != i {
			t.Errorf("component %d got index %d", i, a.Index)
		}
	}
	full := NewApp(mustSpec(t, "gaus"), 0.2, 1)
	if apps[1].TotalMemInsts() >= full.TotalMemInsts() {
		t.Errorf("weight 0.5 must shrink the trace: %d vs %d",
			apps[1].TotalMemInsts(), full.TotalMemInsts())
	}
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOLTPTransactionShape(t *testing.T) {
	a := NewApp(mustSpec(t, "oltp"), 0.1, 0)
	s := a.Stream(0, 0)
	reads := 0
	for {
		inst, ok := s.Next()
		if !ok {
			break
		}
		if len(inst.Acc) != 1 {
			t.Fatalf("OLTP instruction emitted %d sectors, want 1", len(inst.Acc))
		}
		if inst.Acc[0].Write {
			if reads != 3 {
				// The stream may end mid-transaction, but a store must
				// always follow exactly three reads.
				t.Fatalf("store after %d reads, want 3", reads)
			}
			reads = 0
		} else {
			reads++
			if reads > 3 {
				t.Fatal("more than 3 reads without a store")
			}
		}
	}
}

// TestFamilyCalibration is the tolerance gate for every scenario
// family: each application — Table II generics, the OLTP family and
// the stress generators — must land on its ReadRatio
// spec and within band of its ReadReuse/WriteRedund locality targets
// under the generalized Characterize.
func TestFamilyCalibration(t *testing.T) {
	for _, spec := range AllSpecs() {
		st := Characterize(NewApp(spec, 0.25, 0))
		if got := st.ReadRatio(); math.Abs(got-spec.ReadRatio) > 0.03 {
			t.Errorf("%s: read ratio = %.3f, want %.2f +/- 0.03", spec.Name, got, spec.ReadRatio)
		}
		if spec.ReadRatio > 0 {
			if reuse := st.ReadReuse(); reuse < 0.5*spec.ReadReuse || reuse > 2*spec.ReadReuse {
				t.Errorf("%s: read reuse = %.1f, want within 2x of target %.0f", spec.Name, reuse, spec.ReadReuse)
			}
		}
		// The redundancy target is meaningful only once the write pool
		// spans at least one plane cluster; below that the clustering
		// granularity floors the distinct-page count (pr at small
		// scales, for example).
		if spec.ReadRatio < 1 && spec.WriteRedund > 1 && NewApp(spec, 0.25, 0).WritePool() >= WriteClusterPages {
			if red := st.WriteRedundancy(); red < 0.5*spec.WriteRedund || red > 2*spec.WriteRedund {
				t.Errorf("%s: write redundancy = %.1f, want within 2x of target %.0f", spec.Name, red, spec.WriteRedund)
			}
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	spec, _ := SpecByName("betw")
	a := NewApp(spec, 0.05, 0)
	s1, s2 := a.Stream(0, 3), a.Stream(0, 3)
	for {
		i1, ok1 := s1.Next()
		i2, ok2 := s2.Next()
		if ok1 != ok2 {
			t.Fatal("streams diverge in length")
		}
		if !ok1 {
			break
		}
		if i1.PC != i2.PC || i1.ALU != i2.ALU || len(i1.Acc) != len(i2.Acc) {
			t.Fatal("streams diverge in content")
		}
		for k := range i1.Acc {
			if i1.Acc[k] != i2.Acc[k] {
				t.Fatal("streams diverge in addresses")
			}
		}
	}
}

// marshalStream serializes a whole instruction stream to bytes: the
// strongest determinism check is byte equality of the full encoding.
func marshalStream(s *Stream) []byte {
	var b bytes.Buffer
	for {
		inst, ok := s.Next()
		if !ok {
			return b.Bytes()
		}
		binary.Write(&b, binary.LittleEndian, inst.PC)
		binary.Write(&b, binary.LittleEndian, int64(inst.ALU))
		binary.Write(&b, binary.LittleEndian, int64(len(inst.Acc)))
		for _, a := range inst.Acc {
			binary.Write(&b, binary.LittleEndian, a.Addr)
			w := uint8(0)
			if a.Write {
				w = 1
			}
			binary.Write(&b, binary.LittleEndian, w)
		}
	}
}

// TestStreamByteIdentical pins trace determinism under the O(1)-seeded
// RNG: identically-seeded streams — including streams of separately
// constructed App instances, across every generator family — emit
// byte-identical instruction sequences.
func TestStreamByteIdentical(t *testing.T) {
	for _, name := range []string{"betw", "back", "pr", "deg", "oltp", "rdstress", "wrstress"} {
		spec, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a1 := NewApp(spec, 0.1, 0)
		a2 := NewApp(spec, 0.1, 0)
		for _, kw := range [][2]int{{0, 0}, {0, 1}} {
			b1 := marshalStream(a1.Stream(kw[0], kw[1]))
			b2 := marshalStream(a2.Stream(kw[0], kw[1]))
			if len(b1) == 0 {
				t.Fatalf("%s: empty stream encoding", name)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("%s kernel %d warp %d: same-seed streams not byte-identical",
					name, kw[0], kw[1])
			}
		}
	}
}

func TestStreamsDifferAcrossWarps(t *testing.T) {
	spec, _ := SpecByName("bfs1")
	a := NewApp(spec, 0.05, 0)
	i1, _ := a.Stream(0, 0).Next()
	i2, _ := a.Stream(0, 1).Next()
	// Different warps must not generate byte-identical first accesses
	// (their scan strips are disjoint).
	if len(i1.Acc) > 0 && len(i2.Acc) > 0 && i1.Acc[0].Addr == i2.Acc[0].Addr {
		t.Error("warp 0 and warp 1 start at the same address")
	}
}

func TestReuseCalibrationAverages(t *testing.T) {
	// Fig. 5b: read re-access averages ~42 across the co-run pairs.
	// Fig. 5c: write redundancy averages ~65.
	var reuseSum, redundSum float64
	n := 0
	for _, p := range PaperPairs() {
		apps, err := p.Apps(0.25)
		if err != nil {
			t.Fatal(err)
		}
		st := Characterize(apps...)
		reuse, redund := st.ReadReuse(), st.WriteRedundancy()
		if reuse < 5 || reuse > 120 {
			t.Errorf("%s: read reuse = %.1f, out of plausible Fig. 5b band", p.Name, reuse)
		}
		if redund < 10 || redund > 220 {
			t.Errorf("%s: write redundancy = %.1f, out of plausible Fig. 5c band", p.Name, redund)
		}
		reuseSum += reuse
		redundSum += redund
		n++
	}
	avgReuse, avgRedund := reuseSum/float64(n), redundSum/float64(n)
	if avgReuse < 25 || avgReuse > 60 {
		t.Errorf("average read reuse = %.1f, want ~42 (Fig. 5b)", avgReuse)
	}
	if avgRedund < 40 || avgRedund > 95 {
		t.Errorf("average write redundancy = %.1f, want ~65 (Fig. 5c)", avgRedund)
	}
}

func TestScaleChangesBudget(t *testing.T) {
	spec, _ := SpecByName("pr")
	small := NewApp(spec, 0.05, 0)
	big := NewApp(spec, 1.0, 0)
	if small.TotalMemInsts() >= big.TotalMemInsts() {
		t.Errorf("scale must shrink trace: %d vs %d", small.TotalMemInsts(), big.TotalMemInsts())
	}
	if small.MemInstsPerWarp() < 4 {
		t.Error("per-warp floor violated")
	}
}

func TestAddressSpacesDisjoint(t *testing.T) {
	sa, _ := SpecByName("betw")
	sb, _ := SpecByName("back")
	a, b := NewApp(sa, 0.05, 0), NewApp(sb, 0.05, 1)
	if a.VABase() == b.VABase() {
		t.Fatal("apps share address space")
	}
	sA := a.Stream(0, 0)
	for {
		inst, ok := sA.Next()
		if !ok {
			break
		}
		for _, acc := range inst.Acc {
			if acc.Addr>>40 != a.VABase()>>40 {
				t.Fatalf("app A emitted address %x outside its space", acc.Addr)
			}
		}
	}
}

func TestPCStability(t *testing.T) {
	// The predictor requires the scan PC to repeat: all scan accesses in
	// one kernel share one PC, distinct from gather and write PCs.
	spec, _ := SpecByName("pr")
	a := NewApp(spec, 0.1, 0)
	pcs := map[uint64]int{}
	s := a.Stream(0, 0)
	for {
		inst, ok := s.Next()
		if !ok {
			break
		}
		pcs[inst.PC]++
	}
	if len(pcs) > 3 {
		t.Errorf("warp stream used %d distinct PCs, want <= 3 (scan/gather/write)", len(pcs))
	}
}

func TestSequentialScanAdvances(t *testing.T) {
	spec, _ := SpecByName("deg") // highest SeqFrac
	a := NewApp(spec, 0.1, 0)
	s := a.Stream(0, 0)
	var scans []uint64
	for {
		inst, ok := s.Next()
		if !ok {
			break
		}
		if inst.PC&0xff == 0x10 {
			scans = append(scans, inst.Acc[0].Addr)
		}
	}
	if len(scans) < 2 {
		t.Skip("too few scans at this scale")
	}
	for i := 1; i < len(scans); i++ {
		if scans[i] != scans[i-1]+SectorBytes {
			t.Fatalf("scan %d: addr %x, want %x (sequential)", i, scans[i], scans[i-1]+SectorBytes)
		}
	}
}

func TestDegIsReadOnly(t *testing.T) {
	spec, _ := SpecByName("deg")
	st := Characterize(NewApp(spec, 0.2, 0))
	if st.WriteSectors != 0 {
		t.Errorf("deg emitted %d writes, want 0 (read ratio 1.00)", st.WriteSectors)
	}
}

func TestFootprintPagesPositive(t *testing.T) {
	for _, spec := range Specs() {
		a := NewApp(spec, 0.1, 0)
		if a.FootprintPages() <= 0 {
			t.Errorf("%s: footprint %d", spec.Name, a.FootprintPages())
		}
	}
}

func TestStreamPanicsOutOfRange(t *testing.T) {
	spec, _ := SpecByName("betw")
	a := NewApp(spec, 0.05, 0)
	for _, f := range []func(){
		func() { a.Stream(-1, 0) },
		func() { a.Stream(0, 10_000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic for out-of-range stream")
				}
			}()
			f()
		}()
	}
}
