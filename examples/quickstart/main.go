// Quickstart: simulate the full ZnG architecture on one co-run
// workload and compare it against HybridGPU — the paper's headline
// experiment in a dozen lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"zng/internal/config"
	"zng/internal/experiments"
	"zng/internal/platform"
	"zng/internal/workload"
)

func main() {
	cfg := config.Default() // Table I system configuration
	mix, err := workload.MixByName("betw-back")
	if err != nil {
		log.Fatal(err)
	}

	// A modest trace scale keeps the example under a few seconds.
	const scale = 0.25

	zng, err := platform.RunMix(platform.ZnG, mix, scale, cfg)
	if err != nil {
		log.Fatal(err)
	}
	hybrid, err := platform.RunMix(platform.HybridGPU, mix, scale, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s at scale %.2f\n\n", mix.Name, scale)
	fmt.Printf("%-10s  %8s  %10s  %12s\n", "platform", "IPC", "L2 hit", "flash GB/s")
	for _, r := range []platform.Result{hybrid, zng} {
		fmt.Printf("%-10s  %8.4f  %10.3f  %12.2f\n",
			r.Kind, r.IPC, r.L2HitRate, r.FlashArrayGBps())
	}
	fig10, err := experiments.FigureByID("fig10")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nZnG speedup over HybridGPU: %.1fx\npaper (%s): %s\n",
		zng.IPC/hybrid.IPC, fig10.Ref, fig10.Claim)
}
