// Design space: explore two of ZnG's design choices — the prefetch
// waste thresholds of Section V-D and the flash-register interconnect
// of Section IV-C (SWnet vs FCnet vs NiF).
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"
	"strconv"

	"zng/internal/experiments"
)

func main() {
	o := experiments.DefaultOptions()
	o.Scale = 0.25 // keep the example quick
	// Scale the L2s with the trace so the prefetch monitor actually
	// sees eviction pressure (full-scale runs use the Table I sizes).
	o.Cfg.L2SRAM.Sets /= 8
	o.Cfg.L2STT.Sets /= 8

	fmt.Println("Sweeping prefetch waste thresholds (Section V-D)...")
	sweep, err := experiments.Fig13Sweep(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sweep)

	// The first highest IPC in row order: rows are high thresholds,
	// columns low ones, so ties always resolve the same way.
	var best struct{ high, low string }
	bestIPC := 0.0
	for r := range sweep.Rows() {
		for c := 1; c < sweep.Cols(); c++ {
			ipc, err := strconv.ParseFloat(sweep.Cell(r, c), 64)
			if err != nil {
				log.Fatal(err)
			}
			if ipc > bestIPC {
				bestIPC = ipc
				best.high, best.low = sweep.Cell(r, 0), sweep.Header()[c]
			}
		}
	}
	fmt.Printf("best thresholds: high=%s low=%s (paper: 0.3 / 0.05)\n\n", best.high, best.low)

	fmt.Println("Comparing register interconnects (Section IV-C)...")
	nets, err := experiments.AblationWriteNet(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(nets)
	fmt.Println("NiF should match FCnet closely at a fraction of its wiring cost,")
	fmt.Println("while SWnet pays for routing migrations through the flash network.")
}
