package platform_test

import (
	"bytes"
	"reflect"
	"testing"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/workload"
)

func runCell(t *testing.T, k platform.Kind, mix string) platform.Result {
	t.Helper()
	m, err := workload.MixByName(mix)
	if err != nil {
		t.Fatal(err)
	}
	r, err := platform.RunMix(k, m, 0.05, config.Default())
	if err != nil {
		t.Fatalf("%v on %s: %v", k, mix, err)
	}
	return r
}

// TestUnprogrammedCellOmitsPlaneWrites: ZnG on solo-bfs1 never programs
// its flash, so its result carries no plane counts and its document no
// "plane_writes" key, and the document decodes to the same result and
// re-encodes to the same bytes.
func TestUnprogrammedCellOmitsPlaneWrites(t *testing.T) {
	r := runCell(t, platform.ZnG, "solo-bfs1")
	if r.PlaneWrites != nil || r.FlashWriteGBps != 0 {
		t.Fatalf("PlaneWrites has %d entries, flash writes %v GB/s; want nil and 0", len(r.PlaneWrites), r.FlashWriteGBps)
	}
	doc := report.EncodeResult(r)
	if bytes.Contains(doc, []byte(`"plane_writes"`)) {
		t.Errorf("document carries plane_writes:\n%s", doc)
	}
	back, err := report.DecodeResult(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) || !bytes.Equal(report.EncodeResult(back), doc) {
		t.Errorf("document does not round-trip:\n%s", doc)
	}
}

// TestProgrammingCellKeepsEveryPlane: ZnG-rdopt on solo-back programs
// its flash, so its result counts programs on every plane of the
// configuration.
func TestProgrammingCellKeepsEveryPlane(t *testing.T) {
	r := runCell(t, platform.ZnGRdopt, "solo-back")
	var total uint64
	for _, n := range r.PlaneWrites {
		total += n
	}
	if planes := config.Default().Flash.Planes(); len(r.PlaneWrites) != planes || total == 0 {
		t.Errorf("PlaneWrites has %d entries summing to %d, want %d with a positive sum", len(r.PlaneWrites), total, planes)
	}
}
