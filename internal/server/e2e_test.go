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

// TestE2EServerSIGTERMDrains: a SIGTERM arriving while a query is
// executing must not kill that query — the client gets its 200 with a
// full result, new submissions are refused, and the process exits 0.
func TestE2EServerSIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e skipped in -short mode")
	}
	bin := buildBinary(t, "sacserver")
	// -shuffle-cost stretches execution so the signal reliably lands
	// mid-query.
	cmd, base := startServer(t, bin,
		"-sessions", "1", "-n", "64", "-tile", "16", "-shuffle-cost", "30000")

	slow := `tiled(n,n)[ ((i,j), +/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k, let v = a*b, group by (i,j) ]`
	type outcome struct {
		code int
		body queryResponse
	}
	done := make(chan outcome, 1)
	go func() {
		body, _ := json.Marshal(map[string]string{"query": slow})
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- outcome{code: -1}
			return
		}
		defer resp.Body.Close()
		out := outcome{code: resp.StatusCode}
		json.NewDecoder(resp.Body).Decode(&out.body)
		done <- out
	}()

	// Wait until the query is actually executing, then signal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/status")
		busy := 0
		if err == nil {
			var doc StatusDoc
			json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			busy = doc.Sessions.Busy
		}
		if busy > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never started executing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
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
