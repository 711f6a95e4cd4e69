// Quickstart: register a block matrix, run the paper's Figure 1
// running example V_i = sum_j M_ij as a SAC comprehension, inspect the
// chosen plan and the engine metrics, and cross-check the result with
// the local reference evaluator.
package main

import (
	"fmt"
	"log"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/linalg"
)

func main() {
	// A session owns an in-process engine; tiles are 100x100 like a
	// scaled-down version of the paper's 1000x1000 setup.
	s := core.NewSession(core.Config{TileSize: 100})

	// A 600x600 random matrix, generated tile-by-tile by the engine's
	// tasks (no driver-side copy).
	s.RegisterRandMatrix("M", 600, 600, 0, 10, 42)
	s.RegisterScalar("n", int64(600))

	// The paper's Query (2): row sums over a tiled matrix.
	src := "tiledvec(n)[ (i, +/m) | ((i,j),m) <- M, group by i ]"

	plan, err := s.Explain(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:   ", plan)

	v, err := s.QueryVector(src)
	if err != nil {
		log.Fatal(err)
	}
	rowSums := v.ToDense()
	fmt.Printf("result:  %d row sums, first three: %.3f %.3f %.3f\n",
		rowSums.Len(), rowSums.At(0), rowSums.At(1), rowSums.At(2))
	fmt.Println("metrics:", s.Metrics())

	// Cross-check against the single-node reference evaluator on a
	// small matrix (Sections 2-3 semantics).
	small := linalg.RandDense(4, 3, 0, 10, 7)
	local, err := core.EvalLocal(
		"vector(4)[ (i, +/m) | ((i,j),m) <- M, group by i ]",
		map[string]comp.Value{"M": comp.MatrixStorage{M: small}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("local evaluator on a 4x3 matrix:", local.(comp.VectorStorage).V.Data)
	fmt.Println("dense reference:                ", small.RowSums().Data)
}
