// Design space: explore two of ZnG's design choices through the figure
// registry — the prefetch waste thresholds of Section V-D (fig13) and
// the flash-register interconnect of Section IV-C, SWnet vs FCnet vs
// NiF (abl-writenet) — under the docs regime, and print each table
// with the shape the reproduction asserts and whether this run holds
// it.
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"

	"zng/internal/experiments"
)

func main() {
	o := experiments.DocsOptions() // the regime docs/EXPERIMENTS.md runs in
	for _, id := range []string{"fig13", "abl-writenet"} {
		fig, err := experiments.FigureByID(id)
		if err != nil {
			log.Fatal(err)
		}
		t, err := fig.Run(o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t)
		fmt.Printf("Expected shape (%s): %s\n", fig.Ref, fig.Shape)
		fmt.Printf("Verdict: %s\n\n", fig.Verdict(t))
	}
}
