package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func init() {
	RegisterProgram("test.echo", func(env *JobEnv) ([]byte, Report, error) {
		out := fmt.Sprintf("world=%d params=%s", env.World, env.Params)
		return []byte(out), Report{Tasks: 1}, nil
	})
	RegisterProgram("test.fail-on-rank-1", func(env *JobEnv) ([]byte, Report, error) {
		if env.Rank == 1 {
			return nil, Report{}, fmt.Errorf("rank 1 exploded")
		}
		return []byte("survivor"), Report{}, nil
	})
	RegisterProgram("test.panic-on-rank-0", func(env *JobEnv) ([]byte, Report, error) {
		if env.Rank == 0 {
			panic("boom")
		}
		return []byte("calm"), Report{}, nil
	})
	RegisterProgram("test.nondeterministic", func(env *JobEnv) ([]byte, Report, error) {
		return []byte(fmt.Sprintf("rank-%d", env.Rank)), Report{}, nil
	})
	RegisterProgram("test.exchange-ring", func(env *JobEnv) ([]byte, Report, error) {
		// Each rank publishes a token; every rank fetches every peer's
		// token, reads its own locally (asking itself is refused), and
		// concatenates in rank order — all ranks must agree.
		token := []byte(fmt.Sprintf("<%d>", env.Rank))
		if err := env.Exchange.Publish(fmt.Sprintf("tok.%d", env.Rank), token); err != nil {
			return nil, Report{}, err
		}
		var out bytes.Buffer
		for r := 0; r < env.World; r++ {
			key := fmt.Sprintf("tok.%d", r)
			if r == env.Rank {
				if _, err := fetchAll(env.Exchange, r, key); err == nil {
					return nil, Report{}, fmt.Errorf("rank %d fetched its own token", r)
				}
				out.Write(token)
				continue
			}
			blob, err := fetchAll(env.Exchange, r, key)
			if err != nil {
				return nil, Report{}, err
			}
			out.Write(blob)
		}
		return out.Bytes(), Report{RemoteFetches: int64(env.World - 1)}, nil
	})
}

func startCluster(t *testing.T, workers int, hbTimeout time.Duration) (*Driver, []*Worker) {
	t.Helper()
	d, err := NewDriver(DriverConfig{HeartbeatTimeout: hbTimeout})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	t.Cleanup(d.Close)
	ws := make([]*Worker, workers)
	for i := range ws {
		w, err := StartWorker(WorkerConfig{
			ID:          fmt.Sprintf("w%d", i),
			DriverAddr:  d.Addr(),
			Parallelism: 2,
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(w.Close)
		ws[i] = w
	}
	if err := d.WaitForWorkers(workers, 5*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return d, ws
}

func TestRegisterAndRun(t *testing.T) {
	d, _ := startCluster(t, 3, 3*time.Second)
	res, err := d.Run("test.echo", []byte("hi"), 10*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := string(res.Result), "world=3 params=hi"; got != want {
		t.Fatalf("result %q, want %q", got, want)
	}
	if len(res.Workers) != 3 {
		t.Fatalf("want 3 worker rows, got %d", len(res.Workers))
	}
	for _, wr := range res.Workers {
		if !wr.OK || wr.Report.Tasks != 1 {
			t.Errorf("worker %s: ok=%v report=%+v", wr.ID, wr.OK, wr.Report)
		}
	}
}

func TestExchangeAcrossWorkers(t *testing.T) {
	d, _ := startCluster(t, 3, 3*time.Second)
	res, err := d.Run("test.exchange-ring", nil, 10*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, want := string(res.Result), "<0><1><2>"; got != want {
		t.Fatalf("result %q, want %q", got, want)
	}
}

// TestWorkerLossIsCulled kills a worker's connections outright; the
// driver must detect the silence, declare the worker lost, and still
// settle the job from the survivors.
func TestWorkerLossIsCulled(t *testing.T) {
	d, ws := startCluster(t, 3, 500*time.Millisecond)
	ws[2].Close() // abrupt: heartbeats stop
	res, err := d.Run("test.echo", []byte("x"), 10*time.Second)
	if err != nil {
		t.Fatalf("run after worker loss: %v", err)
	}
	// Depending on timing the dead worker was culled before or during
	// submission; either way the job settles and at least 2 rows are OK.
	okRows := 0
	for _, wr := range res.Workers {
		if wr.OK {
			okRows++
		}
	}
	if okRows < 2 {
		t.Fatalf("want >=2 surviving workers, got %d (rows %+v)", okRows, res.Workers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		alive := 0
		for _, wi := range d.Workers() {
			if wi.Alive {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead worker never culled: %+v", d.Workers())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestProgramErrorDoesNotHang: one rank erroring must neither hang the
// job nor poison the others' results.
func TestProgramErrorDoesNotHang(t *testing.T) {
	d, _ := startCluster(t, 3, 3*time.Second)
	res, err := d.Run("test.fail-on-rank-1", nil, 10*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if string(res.Result) != "survivor" {
		t.Fatalf("result %q", res.Result)
	}
	var failed *WorkerRun
	for i := range res.Workers {
		if !res.Workers[i].OK && !res.Workers[i].Lost {
			failed = &res.Workers[i]
		}
	}
	if failed == nil || !strings.Contains(failed.Err, "rank 1 exploded") {
		t.Fatalf("expected a failed row carrying the program error, got %+v", res.Workers)
	}
}

// TestProgramPanicIsContained: a panicking program becomes a job error
// on that rank, and the worker survives to run the next job.
func TestProgramPanicIsContained(t *testing.T) {
	d, _ := startCluster(t, 2, 3*time.Second)
	res, err := d.Run("test.panic-on-rank-0", nil, 10*time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if string(res.Result) != "calm" {
		t.Fatalf("result %q", res.Result)
	}
	// The panicked worker must still serve the next job.
	res2, err := d.Run("test.echo", []byte("again"), 10*time.Second)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	for _, wr := range res2.Workers {
		if !wr.OK {
			t.Fatalf("worker %s did not survive the panic job: %+v", wr.ID, wr)
		}
	}
}

func TestAllFail(t *testing.T) {
	d, _ := startCluster(t, 2, 3*time.Second)
	_, err := d.Run("test.no-such-program", nil, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "unknown program") {
		t.Fatalf("want unknown-program failure, got %v", err)
	}
}

func TestResultMismatchDetected(t *testing.T) {
	d, _ := startCluster(t, 2, 3*time.Second)
	_, err := d.Run("test.nondeterministic", nil, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Fatalf("want determinism violation, got %v", err)
	}
}

func TestProtoRoundTrips(t *testing.T) {
	reg := registerMsg{ID: "w1", DataAddr: "127.0.0.1:999", Parallelism: 4, MemBudget: 1 << 28}
	if got, err := decodeRegister(reg.encode()); err != nil || got != reg {
		t.Fatalf("register: %+v %v", got, err)
	}
	job := jobMsg{JobID: 7, Program: "p", Rank: 1, World: 3,
		Peers: []string{"a", "b", "c"}, Params: []byte{1, 2, 3}}
	got, err := decodeJob(job.encode())
	if err != nil || !reflect.DeepEqual(got, job) {
		t.Fatalf("job: %+v %v", got, err)
	}
	rep := Report{Tasks: 1, Stages: 2, ShuffledBytes: 3, Resubmissions: 4, WallNanos: 5,
		ChunksFetched: 6, MemoryPeak: 7}
	done := jobDoneMsg{JobID: 9, OK: true, Err: "", Report: rep, Telemetry: sampleTelemetry()}
	gd, err := decodeJobDone(done.encode())
	if err != nil || !reflect.DeepEqual(gd, done) {
		t.Fatalf("jobdone: %+v %v", gd, err)
	}
	// A report is this build's schema or an error: a driver/worker
	// build mismatch must not read as silently-zero counters.
	for name, bad := range badReports() {
		if got, err := decodeReport(bad); err == nil {
			t.Errorf("%s report decoded without error: %+v", name, got)
		}
		mis := wireBuf{}
		mis.i64(9)
		mis.i64(1)
		mis.str("")
		mis.blob(bad)
		mis.i64(0) // no telemetry
		mis.u64(0)
		mis.u64(0)
		if _, err := decodeJobDone(mis.b); err == nil {
			t.Errorf("jobdone with a %s report decoded without error", name)
		}
	}
	// Every message decodes from exactly what its writer wrote: one
	// trailing byte, or a cut anywhere, is an error and never a panic.
	welcome := welcomeMsg{HeartbeatNanos: 250}
	jobEnd := jobEndMsg{JobID: 9}
	fetch := fetchStreamMsg{JobID: 9, Key: "x1.2.3", FirstChunk: 4}
	end := streamEndMsg{Chunks: 3, Bytes: 1 << 20}
	for name, m := range map[string]struct {
		blob   []byte
		decode func([]byte) error
	}{
		"register":     {reg.encode(), strictly(reg, decodeRegister)},
		"welcome":      {welcome.encode(), strictly(welcome, decodeWelcome)},
		"job":          {job.encode(), strictly(job, decodeJob)},
		"job done":     {done.encode(), strictly(done, decodeJobDone)},
		"job end":      {jobEnd.encode(), strictly(jobEnd, decodeJobEnd)},
		"fetch-stream": {fetch.encode(), strictly(fetch, decodeFetchStream)},
		"stream end":   {end.encode(), strictly(end, decodeStreamEnd)},
	} {
		if err := m.decode(m.blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.decode(append(m.blob[:len(m.blob):len(m.blob)], 0)) == nil {
			t.Errorf("%s with a trailing byte decoded without error", name)
		}
		for cut := 0; cut < len(m.blob); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s cut at %d: decode panicked: %v", name, cut, r)
					}
				}()
				if m.decode(m.blob[:cut]) == nil {
					t.Errorf("%s cut at %d decoded without error", name, cut)
				}
			}()
		}
	}
}

// strictly adapts a message decoder for TestProtoRoundTrips: an error,
// or a message other than want, fails.
func strictly[M any](want M, decode func([]byte) (M, error)) func([]byte) error {
	return func(p []byte) error {
		got, err := decode(p)
		if err == nil && !reflect.DeepEqual(got, want) {
			return fmt.Errorf("decoded %+v, want %+v", got, want)
		}
		return err
	}
}

// badReports are counter-set blobs no decoder may accept: a field count
// one short of and one past this build's schema, and a well-formed set
// followed by one more byte.
func badReports() map[string][]byte {
	counted := func(n int) []byte {
		var w wireBuf
		w.u64(uint64(n))
		for i := 0; i < n; i++ {
			w.i64(int64(i))
		}
		return w.b
	}
	n := len(obs.Schema)
	return map[string][]byte{
		"short":         counted(n - 1),
		"long":          counted(n + 1),
		"trailing-byte": append(encodeReport(Report{Tasks: 1}), 0),
	}
}

// TestJobStoreFailUnblocksWaiters: a fetch parked on a bucket that
// will never arrive must resolve to an error the moment the job fails.
func TestJobStoreFailUnblocksWaiters(t *testing.T) {
	s := newJobStore(nil)
	var unblocked atomic.Bool
	errc := make(chan error, 1)
	go func() {
		_, err := s.waitGet("never")
		unblocked.Store(true)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if unblocked.Load() {
		t.Fatal("waitGet returned before publish or failure")
	}
	s.fail()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("waitGet returned nil error after fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waitGet still blocked after fail")
	}
}
