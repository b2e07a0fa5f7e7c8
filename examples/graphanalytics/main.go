// Graph analytics: run Fig. 10 through the figure registry on three
// graph-analysis co-run workloads and print its normalized-IPC table
// (every platform the paper compares, ZnG = 1.0), the shape the
// reproduction asserts and whether this run holds it.
//
//	go run ./examples/graphanalytics
package main

import (
	"fmt"
	"log"

	"zng/internal/experiments"
	"zng/internal/workload"
)

func main() {
	o := experiments.DefaultOptions() // Table I system configuration
	o.Scale = 0.25                    // keep the example quick
	o.Mixes = nil
	for _, name := range []string{"bfs1-gaus", "pr-gaus", "sssp3-gram"} {
		mix, err := workload.MixByName(name)
		if err != nil {
			log.Fatal(err)
		}
		o.Mixes = append(o.Mixes, mix)
	}

	fig, err := experiments.FigureByID("fig10")
	if err != nil {
		log.Fatal(err)
	}
	t, err := fig.Run(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t)
	fmt.Printf("Expected shape (%s): %s\n", fig.Ref, fig.Shape)
	fmt.Printf("Verdict: %s\n", fig.Verdict(t))
}
