package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles one of the repo's commands into the test's
// temp dir, skipping when no go toolchain is available.
func buildBinary(t *testing.T, name string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

var listenRe = regexp.MustCompile(`listening on http://([^/\s]+)/`)

// startServer launches a sacserver subprocess and returns its base URL
// once the process reports its listener.
func startServer(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start sacserver: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "[sacserver] "+line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				addr <- m[1]
			}
		}
	}()
	select {
	case a := <-addr:
		return cmd, "http://" + a
	case <-time.After(30 * time.Second):
		t.Fatal("sacserver never reported its listener")
		return nil, ""
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

// TestE2EServerSIGTERMDrains: a SIGTERM arriving while a query is
// executing must not kill that query — the client gets its 200 with a
// full result, new submissions are refused, and the process exits 0.
//
// Every step waits on an event, none on a delay. The server is backed by
// one sacworker, stopped before the query is submitted, so the query
// cannot finish until the test resumes the worker — which it does only
// once the server answers /healthz with 503, i.e. is draining.
func TestE2EServerSIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped in -short mode")
	}
	serverBin := buildBinary(t, "sacserver")
	workerBin := buildBinary(t, "sacworker")
	drvPort := freePort(t)
	worker := exec.Command(workerBin, "-driver", drvPort, "-id", "drain-w0")
	worker.Stdout = os.Stderr
	worker.Stderr = os.Stderr
	if err := worker.Start(); err != nil {
		t.Fatalf("start worker: %v", err)
	}
	t.Cleanup(func() {
		_ = worker.Process.Kill()
		_, _ = worker.Process.Wait()
	})
	cmd, base := startServer(t, serverBin, "-sessions", "1", "-n", "64", "-tile", "16",
		"-cluster", drvPort, "-cluster-workers", "1", "-cluster-wait", "60s")
	stopProcess(t, worker.Process)

	post := func(query string) (int, queryResponse) {
		body, _ := json.Marshal(map[string]string{"query": query})
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return -1, queryResponse{}
		}
		defer resp.Body.Close()
		var out queryResponse
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	product := `tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]`
	type outcome struct {
		code int
		body queryResponse
	}
	done := make(chan outcome, 1)
	go func() {
		code, body := post(product)
		done <- outcome{code, body}
	}()

	// poll waits for cond, failing if the query returns first.
	poll := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
			select {
			case out := <-done:
				t.Fatalf("the query returned (HTTP %d) with its worker stopped", out.code)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
		}
	}
	poll("the query executing", func() bool {
		resp, err := http.Get(base + "/status")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var doc StatusDoc
		json.NewDecoder(resp.Body).Decode(&doc)
		return doc.Sessions.Busy > 0
	})
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	poll("the server draining", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	if code, _ := post("+/[ a | ((i,j),a) <- A ]"); code != http.StatusServiceUnavailable {
		t.Fatalf("a submission during the drain got HTTP %d, want 503", code)
	}
	if err := worker.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatalf("resume the worker: %v", err)
	}

	out := <-done
	if out.code != 200 {
		t.Fatalf("in-flight query was not drained: HTTP %d", out.code)
	}
	if out.body.Result.Kind != "matrix" || out.body.Result.Rows != 64 {
		t.Fatalf("drained query returned %+v", out.body.Result)
	}

	// The process must exit 0 once the drain completes.
	exit := make(chan error, 1)
	go func() { exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("sacserver exited non-zero after drain: %v", ee)
		} else if err != nil {
			t.Fatalf("wait: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sacserver never exited after SIGTERM")
	}

	// And the listener must be gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still answering after drain")
	}
}

// TestE2EClusterBackedServer: a sacserver driving sacworker processes
// answers queries over HTTP with results computed on the cluster, and
// still amortizes compilation through the plan cache.
func TestE2EClusterBackedServer(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped in -short mode")
	}
	serverBin := buildBinary(t, "sacserver")
	workerBin := buildBinary(t, "sacworker")

	// Pick a free port for the cluster control listener.
	drvPort := freePort(t)
	for i := 0; i < 3; i++ {
		w := exec.Command(workerBin, "-driver", drvPort, "-id", fmt.Sprintf("srv-w%d", i))
		w.Stdout = os.Stderr
		w.Stderr = os.Stderr
		if err := w.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		t.Cleanup(func() {
			_ = w.Process.Kill()
			_, _ = w.Process.Wait()
		})
	}
	// One session: plan caches are per pooled session, so a single slot
	// makes the second query's cache hit deterministic.
	_, base := startServer(t, serverBin,
		"-sessions", "1", "-n", "64", "-tile", "16",
		"-cluster", drvPort, "-cluster-workers", "3", "-cluster-wait", "60s")

	src := "+/[ a | ((i,j),a) <- A ]"
	var first, second queryResponse
	for i, dst := range []*queryResponse{&first, &second} {
		body, _ := json.Marshal(map[string]string{"query": src})
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("query %d: HTTP %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		resp.Body.Close()
	}
	if first.Result.Kind != "scalar" || first.Result.Text == "" {
		t.Fatalf("cluster result: %+v", first.Result)
	}
	if _, err := strconv.ParseFloat(strings.TrimSpace(first.Result.Text), 64); err != nil {
		t.Fatalf("cluster scalar result %q not numeric", first.Result.Text)
	}
	if first.Result.Text != second.Result.Text {
		t.Fatalf("cluster rerun changed the result: %q vs %q", first.Result.Text, second.Result.Text)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("plan cache not amortizing on the cluster path: first=%v second=%v", first.Cached, second.Cached)
	}
	if first.Metrics.Tasks == 0 {
		t.Fatal("cluster metrics missing from response")
	}
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}
