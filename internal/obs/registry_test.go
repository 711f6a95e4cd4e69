package obs

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sac_test_ops_total", "ops")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("sac_test_bytes", "bytes")
	g.Set(100)
	g.Add(-30)
	if got := g.Value(); got != 70 {
		t.Fatalf("gauge = %d, want 70", got)
	}
	// Same name returns the same instrument.
	if r.Counter("sac_test_ops_total", "ops") != c {
		t.Fatal("counter lookup is not canonical")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sac_test_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("sac_test_x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sac_test_dur_seconds", "dur", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-9 {
		t.Fatalf("sum = %g, want 5.605", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`sac_test_dur_seconds_bucket{le="0.01"} 1`,
		`sac_test_dur_seconds_bucket{le="0.1"} 3`,
		`sac_test_dur_seconds_bucket{le="1"} 4`,
		`sac_test_dur_seconds_bucket{le="+Inf"} 5`,
		`sac_test_dur_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("sac_test_a_total", "a counter").Add(3)
	r.Gauge("sac_test_b", "a gauge").Set(-7)
	r.Histogram("sac_test_c_seconds", "a histogram", DefSecondsBuckets).Observe(0.2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	// 1 counter + 1 gauge + (len(buckets)+1 bucket lines + sum + count)
	want := 1 + 1 + (len(DefSecondsBuckets) + 1 + 2)
	if n != want {
		t.Fatalf("%d samples, want %d:\n%s", n, want, b.String())
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",                                      // no samples
		"9metric 1\n",                           // bad name
		"sac_x notanumber\n",                    // bad value
		"sac_x{le=\"0.1\" 1\n",                  // unterminated labels
		"# TYPE sac_x frobnitz\n" + "sac_x 1\n", // unknown type
		"sac_x\n",                               // no value
	} {
		if _, err := ValidateExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestRegistryConcurrentHammer drives every instrument kind from many
// goroutines while a scraper renders the exposition — the race-mode
// guarantee the dataflow layers rely on when concurrent stages bump
// shared counters mid-scrape.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 2000
	// Register up front so the scraper never sees an empty exposition.
	r.Counter("sac_test_hammer_total", "")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("sac_test_hammer_total", "")
			g := r.Gauge("sac_test_hammer_gauge", "")
			h := r.Histogram("sac_test_hammer_seconds", "", []float64{0.001, 0.01, 0.1})
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if _, err := ValidateExposition(strings.NewReader(b.String())); err != nil {
				t.Errorf("mid-hammer exposition invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("sac_test_hammer_total", "").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("sac_test_hammer_seconds", "", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestValidateScrapeFile is a CI hook, not a unit test: when
// SAC_SCRAPE_FILE names a file (a curl of a live /debug/metrics
// endpoint), it must be a well-formed Prometheus text exposition with
// at least one sample. Without the env var it is skipped.
func TestValidateScrapeFile(t *testing.T) {
	path := os.Getenv("SAC_SCRAPE_FILE")
	if path == "" {
		t.Skip("SAC_SCRAPE_FILE not set")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := ValidateExposition(f)
	if err != nil {
		t.Fatalf("scrape %s is not valid exposition: %v", path, err)
	}
	if n == 0 {
		t.Fatalf("scrape %s has no samples", path)
	}
	t.Logf("%s: %d valid samples", path, n)
}
