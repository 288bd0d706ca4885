package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

func TestInputsRepeatPerSeed(t *testing.T) {
	a, b := inputDigest(genCorpus(5, 20)), inputDigest(genCorpus(5, 20))
	if a != b {
		t.Fatalf("seed 5 built %s then %s", a, b)
	}
	if c := inputDigest(genCorpus(6, 20)); c == a {
		t.Fatalf("seeds 5 and 6 built the same corpus %s", a)
	}
	sent := map[int]int{}
	for _, i := range serveSchedule(41) {
		sent[i]++
	}
	if len(sent) != 21 {
		t.Fatalf("41 requests send %d scripts, want 21", len(sent))
	}
	for i, n := range sent {
		if n > 2 {
			t.Fatalf("script %d sent %d times, want at most 2", i, n)
		}
	}
}

func TestPercentileIsHarrellDavis(t *testing.T) {
	// For the ranks 1..n the estimate is the expected rank ceil(nU) of
	// U ~ Beta(p(n+1), (1-p)(n+1)), which is np + 1/2.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(len(xs) - i)
	}
	for _, p := range []float64{5, 50, 95} {
		if got, want := percentile(xs, p), p/100*200+0.5; math.Abs(got-want) > 1e-6 {
			t.Errorf("p%v of 1..200 = %v, want %v", p, got, want)
		}
	}
	if got := regIncBeta(285.95, 15.05, 1); got != 1 {
		t.Errorf("I_1 = %v", got)
	}
	// I_x(1, 1) = x and I_x(2, 1) = x^2.
	for _, x := range []float64{0.1, 0.5, 0.93} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
		if got := regIncBeta(2, 1, x); math.Abs(got-x*x) > 1e-12 {
			t.Errorf("I_%v(2,1) = %v", x, got)
		}
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestDigestStoreRejectsAChangedOutput(t *testing.T) {
	cfg := config{workload: "corpus", seed: 1, seconds: 1, root: t.TempDir()}
	if err := checkDigest(cfg, "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(cfg, "aaaa"); err != nil {
		t.Fatalf("same digest twice: %v", err)
	}
	if err := checkDigest(cfg, "bbbb"); err == nil {
		t.Fatal("a changed digest was accepted")
	}
}

// buildDeobserver builds the deobserver binary into a test directory.
func buildDeobserver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "deobserver")
	build := exec.Command("go", "build", "-o", bin, "github.com/invoke-deobfuscation/invokedeob/cmd/deobserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building deobserver: %v\n%s", err, out)
	}
	return bin
}

// configView is the part of /statsz that the server's configuration
// sets: worker and queue sizes, cache shapes, and the optional
// quota and snapshot sections.
type configView struct {
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	ParseCache struct {
		Shards int `json:"shards"`
	} `json:"parse_cache"`
	EvalCache *struct {
		Shards int `json:"shards"`
	} `json:"eval_cache"`
	Quota    json.RawMessage `json:"quota"`
	Snapshot json.RawMessage `json:"snapshot"`
}

func readConfigView(t *testing.T, c *http.Client, url string) configView {
	t.Helper()
	resp, err := c.Get(url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v configView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestInProcessServerMatchesDeobserver checks that the traced serve
// run's in-process server is configured like the child deobserver the
// timed run measures, as far as /statsz shows the configuration.
func TestInProcessServerMatchesDeobserver(t *testing.T) {
	if testing.Short() {
		t.Skip("builds deobserver")
	}
	client := newClient()
	child, err := startServer(buildDeobserver(t))
	if err != nil {
		t.Fatal(err)
	}
	defer child.stop()
	url, stop, err := inProcessServer()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	want, got := readConfigView(t, client, child.url), readConfigView(t, client, url)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("in-process server /statsz config %+v, deobserver %+v", got, want)
	}
}

// TestSmoke runs every workload, untraced and traced, on shrunken
// inputs, and requires clean checks and every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds deobserver and runs every workload")
	}
	bin := buildDeobserver(t)
	defer func(c, g int) { corpusSize, gridSamples = c, g }(corpusSize, gridSamples)
	corpusSize, gridSamples = 12, 2
	for _, w := range []string{"corpus", "gauntlet", "serve"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 1, trace: trace, root: t.TempDir(), deobserver: bin}
			rep, err := workloads[w](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if len(rep.problems) > 0 || rep.out.failed > 0 || rep.out.attempted == 0 || rep.digest == "" {
				t.Fatalf("%s trace=%v: problems %v, %d of %d failed, digest %q",
					w, trace, rep.problems, rep.out.failed, rep.out.attempted, rep.digest)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := rep.metrics[d.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.name)
				}
			}
		}
	}
}
