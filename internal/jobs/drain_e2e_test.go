package jobs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
)

// debugWorker is a sacworker subprocess started with its debug endpoint
// on, whose stdout the test reads: url is the endpoint's base, and
// draining closes when the process reports that it has begun to drain.
type debugWorker struct {
	*exec.Cmd
	url      string
	draining chan struct{}
}

// spawnDebugWorker starts the worker and returns once it has printed
// where its debug endpoint listens. Its output still ends up on stderr.
func spawnDebugWorker(t *testing.T, bin, driverAddr, id string) *debugWorker {
	t.Helper()
	cmd := exec.Command(bin, "-driver", driverAddr, "-id", id, "-debug", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start worker %s: %v", id, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	w := &debugWorker{Cmd: cmd, draining: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if u, ok := strings.CutPrefix(line, "debug endpoint: "); ok {
				urls <- strings.TrimSuffix(u, "/")
			}
			if strings.Contains(line, ": draining") {
				close(w.draining)
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case w.url = <-urls:
	case <-time.After(30 * time.Second):
		t.Fatalf("worker %s never announced its debug endpoint", id)
	}
	return w
}

// runningJob reports whether the worker process has a goroutine inside
// cluster.(*Worker).runJob, by its own goroutine profile: the one view
// from outside of a job having started that does not wait for the job to
// get anywhere.
func (w *debugWorker) runningJob() bool {
	resp, err := http.Get(w.url + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	profile, _ := io.ReadAll(resp.Body)
	return bytes.Contains(profile, []byte("cluster.(*Worker).runJob"))
}

// TestE2EWorkerSIGTERMDrains sends SIGTERM to one subprocess worker
// while a query is in flight. Unlike SIGKILL (covered by
// TestE2EWorkerSIGKILL), a TERM'd worker must finish its assigned rank
// of the job before disconnecting: the query completes with NO lost
// workers and no lineage resubmission, the result stays byte-identical
// to local, and the worker process exits 0.
//
// Every step waits on an event, none on a delay. Rank 0's process is
// stopped before the query is submitted, so the query cannot finish
// until the test lets it; the signal goes out once the victim's
// goroutine profile shows it running its rank, and rank 0 is resumed
// only after the victim has reported that it is draining.
func TestE2EWorkerSIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped in -short mode")
	}
	bin := buildWorkerBinary(t)
	p := baseParams()
	p.Src = fig4Queries[0].src
	want, err := RunQueryLocal(p)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	// A stopped worker sends no heartbeats; it must not be declared lost.
	d, err := cluster.NewDriver(cluster.DriverConfig{HeartbeatTimeout: 5 * time.Minute})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	defer d.Close()
	held := spawnWorkers(t, bin, d.Addr(), 2)[0]
	victim := spawnDebugWorker(t, bin, d.Addr(), "e2e-w2")
	if err := d.WaitForWorkers(3, 30*time.Second); err != nil {
		t.Fatalf("workers never registered: %v", err)
	}
	if err := held.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatalf("stop rank 0: %v", err)
	}
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
	for deadline := time.Now().Add(time.Minute); !victim.runningJob(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the victim never started its rank of the query")
		}
	}
	if err := victim.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case <-victim.draining:
	case out := <-done:
		t.Fatalf("the query returned with rank 0 stopped: %v", out.err)
	case <-time.After(30 * time.Second):
		t.Fatal("the victim never reported draining")
	}
	if err := held.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatalf("resume rank 0: %v", err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("cluster with SIGTERM: %v", out.err)
	}
	if !bytes.Equal(out.blob, want) {
		t.Fatalf("post-SIGTERM result differs from local: %s vs %s", SummarizeBlob(out.blob), SummarizeBlob(want))
	}
	// The drained worker must have completed its rank: graceful
	// shutdown never costs a resubmission.
	if out.run.LostWorkers > 0 || out.run.Resubmissions > 0 {
		t.Fatalf("SIGTERM drain lost work: lost=%d resub=%d", out.run.LostWorkers, out.run.Resubmissions)
	}
	for _, wr := range out.run.Workers {
		if wr.ID == "e2e-w2" && wr.Report.Tasks == 0 {
			t.Fatal("the drained worker reported no tasks for its rank")
		}
	}
	// And the process must exit 0 once its drain completes.
	exit := make(chan error, 1)
	go func() { exit <- victim.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("drained worker did not exit 0: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drained worker never exited")
	}
}
