package jobs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
)

// BenchmarkQueryLocal / BenchmarkQueryCluster3 run the Fig-4 matmul on
// the local backend and on a 3-worker in-process cluster (real TCP
// loopback shuffle, but no process isolation). The gap is not the wire
// cost alone: RunQueryLocal regenerates its inputs from their seeds on
// every call, while the cluster's workers keep theirs resident after the
// first query; the cluster pays the codec, the loopback round trips and
// the result merge instead.
func BenchmarkQueryLocal(b *testing.B) {
	p := baseParams()
	p.Src = fig4Queries[0].src
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunQueryLocal(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryCluster3(b *testing.B) {
	d, err := cluster.NewDriver(cluster.DriverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			ID:          fmt.Sprintf("bw%d", i),
			DriverAddr:  d.Addr(),
			Parallelism: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
	}
	if err := d.WaitForWorkers(3, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	cs := NewClusterSession(d, baseParams(), time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cs.Query(fig4Queries[0].src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCluster2 is the benchmark harness's cluster shape in-tree: two
// in-process workers with one task slot each, n = 1000 in 100 x 100 tiles
// over 8 partitions, warmed with two queries so the input partitions are
// resident and the peer connections pooled. Beside ns/op and B/op it
// reports dials/op, the fetches that found no pooled connection; what
// crossed between the ranks: fetches/op (shuffle blobs, one per map task
// and rank), chunks/op and wire_B/op (their decompressed bytes); and
// result_B/op from the ranks to the driver.
func benchCluster2(b *testing.B, src string) {
	d, err := cluster.NewDriver(cluster.DriverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 2; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{ID: fmt.Sprintf("bw%d", i), DriverAddr: d.Addr(), Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
	}
	if err := d.WaitForWorkers(2, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	cs := NewClusterSession(d, QueryParams{N: 1000, Tile: 100, SeedA: 1, SeedB: 2, Partitions: 8}, time.Minute)
	var dials, fetches, chunks, wire, result int64
	query := func() {
		_, run, err := cs.Query(src)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range run.Workers {
			dials += w.Report.ConnPoolMisses
			fetches += w.Report.RemoteFetches
			chunks += w.Report.ChunksFetched
			wire += w.Report.WireRawBytes
			result += w.Report.ResultBytes
		}
	}
	query()
	query()
	dials, fetches, chunks, wire, result = 0, 0, 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	for _, m := range []struct {
		n    int64
		unit string
	}{{dials, "dials/op"}, {fetches, "fetches/op"}, {chunks, "chunks/op"}, {wire, "wire_B/op"}, {result, "result_B/op"}} {
		b.ReportMetric(float64(m.n)/float64(b.N), m.unit)
	}
}

func BenchmarkQueryCluster2Rowsum(b *testing.B) {
	benchCluster2(b, "tiledvec(n)[ (i, +/a) | ((i,j),a) <- A, group by i ]")
}
func BenchmarkQueryCluster2Matmul(b *testing.B) { benchCluster2(b, fig4Queries[0].src) }
