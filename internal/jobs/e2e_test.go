package jobs

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
)

// e2eWorld is the subprocess-worker count for the e2e suites: 3 by
// default, overridable with SAC_E2E_WORLD (CI runs a world=8 leg).
func e2eWorld(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("SAC_E2E_WORLD"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			t.Fatalf("bad SAC_E2E_WORLD=%q", v)
		}
		return n
	}
	return 3
}

// buildWorkerBinary compiles cmd/sacworker once per test binary run.
func buildWorkerBinary(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "sacworker")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sacworker")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build sacworker: %v\n%s", err, out)
	}
	return bin
}

// spawnWorkers starts n sacworker processes against the driver and
// returns them; the cleanup kills any still running.
func spawnWorkers(t *testing.T, bin, driverAddr string, n int) []*exec.Cmd {
	t.Helper()
	procs := make([]*exec.Cmd, n)
	for i := range procs {
		cmd := exec.Command(bin, "-driver", driverAddr, "-id", fmt.Sprintf("e2e-w%d", i))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		procs[i] = cmd
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
	}
	return procs
}

// TestE2EDistributedParity is the acceptance test with real process
// isolation: a driver plus three sacworker subprocesses must return
// byte-identical results to the local backend on the Fig-4 query set
// (tiled matmul via group-by-join, matmul via join + group-by, and a
// row-sum aggregation), each result shipped to the driver once.
func TestE2EDistributedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped in -short mode")
	}
	bin := buildWorkerBinary(t)
	d, err := cluster.NewDriver(cluster.DriverConfig{})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()
	world := e2eWorld(t)
	spawnWorkers(t, bin, d.Addr(), world)
	if err := d.WaitForWorkers(world, 30*time.Second); err != nil {
		t.Fatalf("workers never registered: %v", err)
	}
	// The suite at the usual shape, then the matrix and vector results
	// again where the tiles do not divide the matrix: each worker process
	// ships the partitions it owns and the driver's merge must place
	// clipped edge tiles where the local encoder does.
	type e2eQuery struct {
		name, src string
		gbj       bool
		n, tile   int64
	}
	var queries []e2eQuery
	for _, q := range fig4Queries {
		queries = append(queries, e2eQuery{q.name, q.src, q.gbj, 0, 0})
	}
	for _, i := range []int{0, 2} {
		queries = append(queries, e2eQuery{fig4Queries[i].name + "-ragged", fig4Queries[i].src, false, 250, 100})
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			p := baseParams()
			p.Src = q.src
			p.DisableGBJ = q.gbj
			if q.n > 0 {
				p.N, p.Tile = q.n, q.tile
			}
			want, err := RunQueryLocal(p)
			if err != nil {
				t.Fatalf("local: %v", err)
			}
			cs := NewClusterSession(d, p, 2*time.Minute)
			got, run, err := cs.Query(q.src)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("distributed result differs from local: %s vs %s",
					SummarizeBlob(got), SummarizeBlob(want))
			}
			if len(run.Workers) != world || run.LostWorkers != 0 || run.Attempts != 1 {
				t.Fatalf("unexpected run shape: %+v", run)
			}
			checkShippedOnce(t, run, got, p)
		})
	}
}

// stopProcess SIGSTOPs a process and returns once /proc/<pid>/stat shows
// it stopped (state T).
func stopProcess(t *testing.T, p *os.Process) {
	t.Helper()
	if err := p.Signal(syscall.SIGSTOP); err != nil {
		t.Fatalf("stop %d: %v", p.Pid, err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.Pid))
		if err != nil {
			t.Skipf("no /proc to confirm a stopped process: %v", err)
		}
		// pid (comm) state ...: comm may hold spaces and parentheses.
		if f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:])); f[0] == "T" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("process %d never stopped", p.Pid)
		}
	}
}

// TestE2EWorkerSIGKILL kills one subprocess worker with SIGKILL while
// a query is in flight: the cluster must finish the query with results
// byte-identical to local, the lost worker's map tasks resubmitted on the
// survivors, and the next query run on the survivors.
//
// Every step waits on an event, none on a delay. The victim is stopped
// before the query is submitted, so the query cannot finish without it;
// the kill goes out once a survivor's goroutine profile shows its rank of
// the job running, which means the job was dispatched with the victim as
// one of its ranks.
func TestE2EWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped in -short mode")
	}
	bin := buildWorkerBinary(t)
	world := e2eWorld(t)
	p := baseParams()
	p.Src = fig4Queries[0].src
	// Every rank has to own something to lose: with the base 6
	// partitions a world of 8 leaves two ranks none.
	p.Partitions = max(p.Partitions, 2*int64(world))
	want, err := RunQueryLocal(p)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	// A stopped worker sends no heartbeats; it must not be declared lost
	// before the job reaches it. Its death shows as its closed connection.
	d, err := cluster.NewDriver(cluster.DriverConfig{HeartbeatTimeout: 5 * time.Minute})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()
	victim := spawnWorkers(t, bin, d.Addr(), world-1)[0]
	survivor := spawnDebugWorker(t, bin, d.Addr(), fmt.Sprintf("e2e-w%d", world-1))
	if err := d.WaitForWorkers(world, 30*time.Second); err != nil {
		t.Fatalf("workers never registered: %v", err)
	}
	stopProcess(t, victim.Process)
	type outcome struct {
		blob []byte
		run  *cluster.RunResult
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		blob, run, err := NewClusterSession(d, p, 2*time.Minute).Query(p.Src)
		done <- outcome{blob, run, err}
	}()
	for deadline := time.Now().Add(time.Minute); !survivor.runningJob(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the survivor never started its rank of the query")
		}
	}
	if err := victim.Process.Kill(); err != nil { // SIGKILL: no goodbye
		t.Fatalf("kill: %v", err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("cluster with SIGKILL: %v", out.err)
	}
	if !bytes.Equal(out.blob, want) {
		t.Fatalf("post-SIGKILL result differs from local: %s vs %s", SummarizeBlob(out.blob), SummarizeBlob(want))
	}
	if run := out.run; run.LostWorkers != 1 || run.Resubmissions == 0 {
		t.Fatalf("%d lost, %d resubmissions; want 1 and some", run.LostWorkers, run.Resubmissions)
	}
	// The survivors answer the next query as a smaller world, from the
	// partitions they kept and the ones they now own.
	waitAlive(t, d, world-1)
	got, after, err := NewClusterSession(d, p, 2*time.Minute).Query(p.Src)
	if err != nil || !bytes.Equal(got, want) || len(after.Workers) != world-1 || after.LostWorkers != 0 {
		t.Fatalf("query after the loss: err %v, %d workers, matches local: %v", err, len(after.Workers), bytes.Equal(got, want))
	}
	checkTakeover(t, after, p, 2, nil)
}
