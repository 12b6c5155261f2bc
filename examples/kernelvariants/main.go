// Kernel-variant example: the paper's concluding observation (§V) that even
// a single line of a scientific code — the Regularized Least Squares solve
// of Procedure 6 — admits many mathematically equivalent algorithms with
// significantly different performance. Three equivalent RLS implementations
// (normal equations + Cholesky, augmented-matrix QR, explicit inversion) are
// executed FOR REAL on this machine, and their measured wall-time
// distributions are clustered with the same relative-performance
// methodology used for the device placements.
//
//	go run ./examples/kernelvariants
package main

import (
	"fmt"
	"log"
	"os"

	"relperf"
	"relperf/internal/report"
	"relperf/internal/workload"
)

func main() {
	// First, the equivalence witness: all variants solve the same problem.
	diff, err := workload.VerifyVariantsAgree(48, 0.5, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max pairwise solution difference across variants: %.2e "+
		"(mathematically equivalent)\n\n", diff)

	// Measure real executions at two problem sizes: the ranking can change
	// with size, which is why measurement-based clustering is needed at
	// all.
	for _, size := range []int{48, 96} {
		ss, err := workload.MeasureKernelVariants(workload.KernelStudyConfig{
			Size: size, Iters: 3, N: 30, Seed: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==== size %d ====\n", size)
		if err := report.SummaryTable(os.Stdout, ss.Names(), ss.Data()); err != nil {
			log.Fatal(err)
		}
		_, fa, err := relperf.ClusterSamples(ss, nil, relperf.ClusterSamplesOptions{Reps: 100, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nFinal clustering:")
		if err := report.FinalTable(os.Stdout, fa, ss.Names()); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
