package harness

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine,
// and its speed moves by a quarter either way in phases of ten seconds
// to some minutes, for every kind of work alike: arithmetic in
// registers, streaming through memory and allocation slow down
// together (README, "Host speed"). A wall time therefore says as much
// about the minute it was taken in as about the program.
//
// So the timed section is cut into blocks of ops with a gap between
// them, and in each gap the harness times a fixed kernel of its own,
// the yardstick. An op's time is reported as it would read on a host
// that runs the yardstick in yardstickNominalMs: wall time multiplied
// by yardstickNominalMs over the yardstick's time in the two gaps
// around the op's block. The yardstick calls nothing in the program and
// lives in the benchmark's directory, so no change to the program moves
// it.

// yardstickNominalMs is the scale of the reported times: about the
// yardstick's wall time on this benchmark's first host (2 vCPUs of a
// Xeon at 2.1 GHz), where it reads 8 ms in the fastest minutes and 12
// in ordinary slow ones. Only ratios of reported times mean anything
// across hosts; the constant makes them read like milliseconds on that
// one.
const yardstickNominalMs = 10.0

const (
	// gapSamples yardstick runs are timed in each gap; a block's scale
	// comes from the median of the two gaps around it.
	gapSamples = 5
	// blockSeconds of ops (at least one per client) run between gaps, so
	// the yardstick takes about a tenth of a timed section.
	blockSeconds = 0.5

	// The yardstick is yardstickChunks pieces of work that the cores take
	// from one counter, as the engine's cores take tasks: when the host
	// slows one core down, the other does more of the pieces, and the
	// yardstick slows as an op does, not as the slower core does.
	yardstickChunks = 32
	yardstickRounds = 10_000  // per chunk: rounds of 64 multiply-adds on values in registers and L1
	yardstickWords  = 1 << 15 // per chunk: float64s (256 KiB of an 8 MiB buffer) read and written, three times
)

var yardstickBuf = sync.OnceValue(func() []float64 {
	buf := make([]float64, yardstickChunks*yardstickWords)
	for k := range buf {
		buf[k] = float64(k)
	}
	return buf
})

// yardstickChunk is one piece: arithmetic (four fifths of its time),
// then passes through its part of a buffer larger than a core's own
// caches. A yardstick that spent half its time in a 32 MiB buffer
// followed the memory-bound workloads no better and the others worse.
// It allocates nothing.
func yardstickChunk(buf []float64) float64 {
	var a [64]float64
	for i := range a {
		a[i] = float64(i) * 0.001
	}
	s := 0.0
	for r := 0; r < yardstickRounds; r++ {
		for i := 0; i < 64; i++ {
			s += a[i] * a[(i+r)&63]
		}
	}
	for pass := 0; pass < 3; pass++ {
		for i := range buf {
			s += buf[i]
			buf[i] = s * 1e-9
		}
	}
	return s
}

var yardstickSink atomic.Uint64

// yardstick times one run of the kernel on every core at once, as the
// ops use every core, and returns its wall time in ms.
func yardstick() float64 {
	buf := yardstickBuf()
	var next atomic.Int32
	var wg sync.WaitGroup
	t := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := 0.0
			for c := int(next.Add(1)) - 1; c < yardstickChunks; c = int(next.Add(1)) - 1 {
				s += yardstickChunk(buf[c*yardstickWords : (c+1)*yardstickWords])
			}
			yardstickSink.Add(math.Float64bits(s))
		}()
	}
	wg.Wait()
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// gap is the yardstick's times between two blocks.
type gap []float64

func takeGap() gap {
	g := make(gap, gapSamples)
	for i := range g {
		g[i] = yardstick()
	}
	return g
}

// hostScale is what a wall time measured between gaps a and b is
// multiplied by to read as on the nominal host.
func hostScale(a, b gap) float64 {
	return yardstickNominalMs / median(append(append([]float64(nil), a...), b...))
}
