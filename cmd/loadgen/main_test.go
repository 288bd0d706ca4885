package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		mix, err := parseMix(defaultMix)
		if err != nil {
			t.Fatalf("default mix rejected: %v", err)
		}
		for _, c := range classOrder {
			if mix[c] <= 0 {
				t.Errorf("default mix missing class %q", c)
			}
		}
	})
	t.Run("subset and zero weights dropped", func(t *testing.T) {
		mix, err := parseMix("light=3, heavy=0,dup=1")
		if err != nil {
			t.Fatal(err)
		}
		if mix["light"] != 3 || mix["dup"] != 1 {
			t.Errorf("mix = %v", mix)
		}
		if _, ok := mix["heavy"]; ok {
			t.Error("zero-weight class kept")
		}
	})
	for _, bad := range []string{"", "light", "light=x", "light=-1", "bogus=1", "light=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted, want error", bad)
		}
	}
}

// TestPickClassDistribution: with a fixed seed the weighted picker
// must roughly track the weights (deterministic given the seed).
func TestPickClassDistribution(t *testing.T) {
	mix := map[string]int{"light": 70, "heavy": 20, "oversize": 10}
	rng := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[pickClass(rng, mix)]++
	}
	for name, w := range mix {
		want := float64(w) / 100
		got := float64(counts[name]) / n
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("class %s frequency %.3f, want within 20%% of %.3f", name, got, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100, sorted
	}
	if got := percentile(vals, 50); got != 51 {
		t.Errorf("p50 = %v, want 51", got)
	}
	if got := percentile(vals, 99); got != 100 {
		t.Errorf("p99 = %v, want 100", got)
	}
}

func TestDeltaCounts(t *testing.T) {
	before := map[string]int64{"200": 5, "429": 1}
	after := map[string]int64{"200": 9, "429": 1, "503": 2}
	got := deltaCounts(before, after)
	want := map[string]int64{"200": 4, "503": 2}
	if len(got) != len(want) || got["200"] != 4 || got["503"] != 2 {
		t.Errorf("delta = %v, want %v", got, want)
	}
}

func TestTrickleReader(t *testing.T) {
	tr := &trickleReader{data: []byte("hello world"), chunk: 3, interval: time.Millisecond}
	out, err := io.ReadAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello world" {
		t.Errorf("trickled body = %q", out)
	}
}

// TestTrafficGen pins the shape of each class's request.
func TestTrafficGen(t *testing.T) {
	opts := options{apiKey: "k", tenants: 8, heavyBytes: 1024, oversizeBytes: 4096}
	gen := newTrafficGen(opts, rand.New(rand.NewSource(7)))

	light1 := gen.next("light")
	light2 := gen.next("light")
	if light1.body == light2.body {
		t.Error("light scripts must be distinct per request")
	}
	if !strings.HasPrefix(light1.apiKey, "k-t") {
		t.Errorf("light key %q not drawn from the tenant pool", light1.apiKey)
	}
	lightKeys := map[string]bool{}
	for i := 0; i < 100; i++ {
		lightKeys[gen.next("light").apiKey] = true
	}
	if len(lightKeys) != opts.tenants {
		t.Errorf("light traffic used %d tenant keys, want %d", len(lightKeys), opts.tenants)
	}
	if got := gen.next("heavy").apiKey; !strings.HasPrefix(got, "k-t") {
		t.Errorf("heavy key %q not drawn from the tenant pool", got)
	}
	if got := gen.next("slowloris").apiKey; got != "k-hostile" {
		t.Errorf("slowloris key = %q, want the shared hostile tenant", got)
	}
	if gen.next("dup").body != gen.next("dup").body {
		t.Error("dup scripts must repeat")
	}
	heavy := gen.next("heavy")
	if len(heavy.body) < opts.heavyBytes {
		t.Errorf("heavy body %d bytes, want >= %d", len(heavy.body), opts.heavyBytes)
	}
	over := gen.next("oversize")
	if len(over.body) < opts.oversizeBytes {
		t.Errorf("oversize body %d bytes, want >= %d", len(over.body), opts.oversizeBytes)
	}
	if got := gen.next("disconnect"); got.fault != "disconnect" {
		t.Errorf("disconnect fault = %q", got.fault)
	}
	if got := gen.next("slowloris"); got.fault != "slowloris" {
		t.Errorf("slowloris fault = %q", got.fault)
	}
	k1, k2 := gen.next("keyflood"), gen.next("keyflood")
	if k1.apiKey == k2.apiKey || k1.apiKey == "k" {
		t.Errorf("keyflood keys not distinct: %q %q", k1.apiKey, k2.apiKey)
	}
	if got := gen.next("quotabuster").apiKey; got != "quota-buster" {
		t.Errorf("quotabuster key = %q", got)
	}
	// Every class's body must be valid request JSON.
	for _, c := range classOrder {
		r := gen.next(c)
		var body struct {
			Script string `json:"script"`
		}
		if err := json.Unmarshal([]byte(r.body), &body); err != nil || body.Script == "" {
			t.Errorf("class %s body not valid script JSON: %v", c, err)
		}
	}
}

// fakeTarget is a stub deobfuscation server: instant 200s for
// /v1/deobfuscate, plus a /statsz that counts what it served.
func fakeTarget(t *testing.T) *httptest.Server {
	t.Helper()
	var served atomic.Int64 // handlers run concurrently
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/deobfuscate", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		served.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"deobfuscated":"ok"}`))
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		n := served.Load()
		json.NewEncoder(w).Encode(map[string]any{
			"rejected":      map[string]int64{},
			"status_counts": map[string]int64{"200": n},
			"classes":       map[string]int64{"light": n},
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestDriveAgainstStub runs the whole harness loop briefly against a
// stub server and checks the report adds up.
func TestDriveAgainstStub(t *testing.T) {
	srv := fakeTarget(t)
	opts := options{
		url: srv.URL, qps: 400, duration: 300 * time.Millisecond,
		workers: 16, mix: map[string]int{"light": 3, "dup": 1},
		seed: 1, apiKey: "t", timeout: 2 * time.Second,
		heavyBytes: 512, oversizeBytes: 1024, slowTime: 50 * time.Millisecond,
	}
	rep, err := drive(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sent int64
	for _, name := range []string{"light", "dup"} {
		cr, ok := rep.Classes[name]
		if !ok {
			t.Fatalf("class %s missing from report", name)
		}
		sent += cr.Sent
		if cr.Statuses["200"] != cr.Sent {
			t.Errorf("class %s: %d sent but statuses %v", name, cr.Sent, cr.Statuses)
		}
		if cr.SuccessRate != 1 {
			t.Errorf("class %s success rate %v, want 1", name, cr.SuccessRate)
		}
	}
	if sent == 0 {
		t.Fatal("no requests dispatched")
	}
	if rep.SLO.LightSuccess != 1 {
		t.Errorf("light success = %v, want 1", rep.SLO.LightSuccess)
	}
	if rep.ServerDelta.StatusCounts["200"] != sent {
		t.Errorf("server delta 200s = %d, harness sent %d",
			rep.ServerDelta.StatusCounts["200"], sent)
	}
}

// TestRunAssertionsAndReport drives run() end to end: flag parsing,
// JSON report emission, and SLO assertion exit codes.
func TestRunAssertionsAndReport(t *testing.T) {
	srv := fakeTarget(t)
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr strings.Builder
	code, err := run([]string{
		"-url", srv.URL, "-qps", "200", "-duration", "250ms",
		"-mix", "light=1", "-json", out,
		"-assert-light-success", "0.9", "-assert-light-p99", "1s",
		"-assert-max-light-5xx", "0",
	}, &stdout, &stderr)
	if err != nil || code != 0 {
		t.Fatalf("run = code %d err %v\nstdout: %s\nstderr: %s", code, err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "SLO PASS") {
		t.Errorf("stdout missing SLO PASS:\n%s", stdout.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if !rep.SLO.Asserted || len(rep.SLO.Failures) != 0 {
		t.Errorf("SLO section = %+v", rep.SLO)
	}

	// An unmeetable floor must fail with exit code 1.
	code, err = run([]string{
		"-url", srv.URL, "-qps", "100", "-duration", "150ms",
		"-mix", "light=1", "-assert-light-p99", "1ns",
	}, io.Discard, io.Discard)
	if err != nil || code != 1 {
		t.Fatalf("impossible SLO: code %d err %v, want code 1", code, err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	if code, err := run(nil, io.Discard, io.Discard); code != 2 || err == nil {
		t.Errorf("missing -url: code %d err %v, want code 2", code, err)
	}
	if code, _ := run([]string{"-url", "http://x", "-mix", "bogus=1"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("bad mix: code %d, want 2", code)
	}
}
