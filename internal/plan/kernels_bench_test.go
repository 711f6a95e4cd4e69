package plan

import (
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/opt"
	"repro/internal/sacparser"
	"repro/internal/tiled"
)

// BenchmarkCompiledVsHandwritten times the three Fig 4.A / Fig 1 shapes
// through the kernel compiler and through the hand-written tiled
// operators on the same persisted inputs (n=2000, tile 100, 8
// partitions; rowsums-n1000 is the 8 MB input cluster-rowsum folds,
// against 32 MB at n=2000) and reports compiled/handwritten — the
// plan.compiled_vs_handwritten layer metric of ROADMAP item 2, kept here
// until a benchmark PR lifts it into benchmark/. Both sides are forced
// with the same Count action; compile time is included on the compiled
// side, as Session.Query pays it.
func BenchmarkCompiledVsHandwritten(b *testing.B) {
	ctx := dataflow.NewLocalContext()
	defer ctx.Close()
	const n, tile, parts = 2000, 100, 8
	ma := tiled.RandMatrix(ctx, n, n, tile, parts, 0, 10, 1).Persist()
	mb := tiled.RandMatrix(ctx, n, n, tile, parts, 0, 10, 2).Persist()
	dataflow.Count(ma.Tiles)
	dataflow.Count(mb.Tiles)
	ms := tiled.RandMatrix(ctx, n/2, n/2, tile, parts, 0, 10, 3).Persist()
	dataflow.Count(ms.Tiles)
	cat := NewCatalog(ctx).BindMatrix("A", ma).BindMatrix("B", mb).BindScalar("n", int64(n))
	small := NewCatalog(ctx).BindMatrix("A", ms).BindScalar("n", int64(n/2))

	const rowsums = "tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]"
	for _, c := range []struct {
		name, src string
		cat       *Catalog
		hand      func()
	}{
		{"add", "tiled(n,n)[ ((i,j), a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]", cat,
			func() { dataflow.Count(ma.Add(mb).Tiles) }},
		{"transpose", "tiled(n,n)[ ((j,i), a) | ((i,j),a) <- A ]", cat,
			func() { dataflow.Count(ma.Transpose().Tiles) }},
		{"rowsums", rowsums, cat, func() { dataflow.Count(ma.RowSums().Blocks) }},
		{"rowsums-n1000", rowsums, small, func() { dataflow.Count(ms.RowSums().Blocks) }},
	} {
		e := sacparser.MustParse(c.src)
		compiled := func() {
			q, err := Compile(e, c.cat, opt.Options{})
			if err == nil {
				_, _, err = q.Force(false)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			compiled() // warm the frame pool and the allocator
			c.hand()
			var tc, th time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := time.Now()
				compiled()
				tc += time.Since(t)
				t = time.Now()
				c.hand()
				th += time.Since(t)
			}
			b.ReportMetric(tc.Seconds()*1e3/float64(b.N), "compiled-ms")
			b.ReportMetric(th.Seconds()*1e3/float64(b.N), "handwritten-ms")
			b.ReportMetric(float64(tc)/float64(th), "compiled/handwritten")
		})
	}
}

// BenchmarkCompiledProduct times the compiled GEMM product in each
// orientation (n=1000, tile 100, 8 partitions) on persisted inputs,
// compile time included; the result is drained into the tile pool, so
// -benchmem shows what the plan allocates besides its output. A
// transposed operand is read in place, so TN, NT and TT allocate what NN
// does.
func BenchmarkCompiledProduct(b *testing.B) {
	ctx := dataflow.NewLocalContext()
	defer ctx.Close()
	const n, tile, parts = 1000, 100, 8
	ma := tiled.RandMatrix(ctx, n, n, tile, parts, 0, 10, 1).Persist()
	mb := tiled.RandMatrix(ctx, n, n, tile, parts, 0, 10, 2).Persist()
	dataflow.Count(ma.Tiles)
	dataflow.Count(mb.Tiles)
	cat := NewCatalog(ctx).BindMatrix("A", ma).BindMatrix("B", mb).BindScalar("n", int64(n))
	for _, o := range []struct{ name, ga, gb string }{
		{"NN", "(i,k)", "(kk,j)"}, {"TN", "(k,i)", "(kk,j)"}, {"NT", "(i,k)", "(j,kk)"}, {"TT", "(k,i)", "(j,kk)"},
	} {
		e := sacparser.MustParse(productSrc(n, n, o.ga, o.gb, "a*b"))
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := Compile(e, cat, opt.Options{})
				var res *Result
				if err == nil {
					res, err = q.Execute()
				}
				if err != nil {
					b.Fatal(err)
				}
				res.Matrix.Drain()
			}
		})
	}
}

// benchLocalCoord times one of the local-coord workload's two shapes (n =
// 1000, tile 100, 8 partitions) on a persisted input, compile time
// included and a vector result forced, with the allocations -benchmem
// shows: a total and a row avg, both tile aggregations.
func benchLocalCoord(b *testing.B, src string) {
	ctx := dataflow.NewLocalContext()
	defer ctx.Close()
	const n, tile, parts = 1000, 100, 8
	ma := tiled.RandMatrix(ctx, n, n, tile, parts, 0, 10, 1).Persist()
	dataflow.Count(ma.Tiles)
	cat := NewCatalog(ctx).BindMatrix("A", ma).BindScalar("n", int64(n))
	e := sacparser.MustParse(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := Compile(e, cat, opt.Options{})
		if err == nil {
			_, _, err = q.Force(false)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTotalReduce(b *testing.B) { benchLocalCoord(b, "+/[ a | ((i,j),a) <- A ]") }

func BenchmarkRowAvg(b *testing.B) {
	benchLocalCoord(b, "tiledvec(n)[ (i, avg/a) | ((i,j),a) <- A, group by i ]")
}
