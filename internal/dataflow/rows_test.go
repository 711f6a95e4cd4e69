package dataflow

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/spill"
)

// Codecs for the row types the engine's generic tests shuffle beyond
// those the engine registers: a shuffle, a Persist cache and a cluster
// gather resolve their row codec when they are built.

// box is a row value a combine function mutates in place.
type box struct{ v float64 }

type boxCodec struct{}

func (boxCodec) Encode(w *spill.Writer, b *box) { w.F64(b.v) }
func (boxCodec) Decode(r *spill.Reader) *box    { return &box{v: r.F64()} }
func (boxCodec) Size(*box) int64                { return 8 }

type joinedCodec[A, B any] struct {
	a spill.Codec[A]
	b spill.Codec[B]
}

func (c joinedCodec[A, B]) Encode(w *spill.Writer, j JoinedPair[A, B]) {
	c.a.Encode(w, j.Left)
	c.b.Encode(w, j.Right)
}

func (c joinedCodec[A, B]) Decode(r *spill.Reader) JoinedPair[A, B] {
	a := c.a.Decode(r)
	return JoinedPair[A, B]{Left: a, Right: c.b.Decode(r)}
}

func (c joinedCodec[A, B]) Size(j JoinedPair[A, B]) int64 {
	return c.a.Size(j.Left) + c.b.Size(j.Right)
}

func init() {
	ic, sc := spill.IntCodec{}, spill.StringCodec{}
	spill.Register(PairCodec[int, int](ic, ic))
	spill.Register(PairCodec[int, int64](ic, spill.Int64Codec{}))
	spill.Register(PairCodec[int, string](ic, sc))
	spill.Register(PairCodec[string, int](sc, ic))
	spill.Register(PairCodec[string, string](sc, sc))
	spill.Register(PairCodec[int, JoinedPair[int, int]](ic, joinedCodec[int, int]{ic, ic}))
	spill.Register(PairCodec[int, *box](ic, boxCodec{}))
}

// unregistered is a row type with no codec.
type unregistered struct{ X int }

// wantNoCodecPanic runs build and checks that it panics naming the
// unregistered row type and spill.Register.
func wantNoCodecPanic(t *testing.T, build func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "dataflow.unregistered") || !strings.Contains(msg, "spill.Register") {
			t.Fatalf("panic %q, want one naming dataflow.unregistered and spill.Register", msg)
		}
	}()
	build()
}

// TestUnregisteredRowPanicsAtShuffle: building a shuffle of a row with no
// codec panics before any stage runs.
func TestUnregisteredRowPanicsAtShuffle(t *testing.T) {
	ctx := NewLocalContext()
	defer ctx.Close()
	rows := Parallelize(ctx, []unregistered{{1}, {2}}, 2)
	wantNoCodecPanic(t, func() { Repartition(rows, 3) })
	if n := ctx.Metrics().Stages; n != 0 {
		t.Fatalf("%d stages ran", n)
	}
}

// TestUnregisteredRowPanicsAtPersist: marking a dataset of such rows for
// caching panics there, not when the cache first fills.
func TestUnregisteredRowPanicsAtPersist(t *testing.T) {
	ctx := NewLocalContext()
	defer ctx.Close()
	wantNoCodecPanic(t, func() { Parallelize(ctx, []unregistered{{1}}, 1).Persist() })
}

// TestUnregisteredRowPanicsAtGather: an action that gathers such rows
// across ranks panics on every rank before computing a partition.
func TestUnregisteredRowPanicsAtGather(t *testing.T) {
	const world = 2
	computed := make([]int, world)
	_, panics := onRanks(newMemHub(world), world, func(*Config) {}, func(ctx *Context) int {
		rows := Generate(ctx, 4, func(p int) []unregistered {
			computed[ctx.conf.Transport.Rank()]++
			return []unregistered{{p}}
		})
		return len(Collect(rows))
	})
	for r, p := range panics {
		wantNoCodecPanic(t, func() { panic(p) })
		if computed[r] != 0 {
			t.Fatalf("rank %d computed %d partitions", r, computed[r])
		}
	}
}
