package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/server"
)

// serveRate is the open-loop request rate. Closed-loop capacity with
// two clients on a 2-vCPU host is 51-61 requests/s. Requests queue
// behind deep-wrapper scripts already at low rates, and the queueing
// amplifies contention from other tenants of the host: over five seeds
// in one period, p95 read 158-366 ms at 15/s against 73-127 ms at 10/s,
// and at 20/s it swung by 0.35 of its median.
const serveRate = 10.0

// deobserver is a child server process.
type deobserver struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// startServer launches the deobserver binary on an ephemeral loopback
// port and waits for it to report its address.
func startServer(bin string) (*deobserver, error) {
	if bin == "" {
		return nil, errors.New("serve needs --deobserver")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &deobserver{cmd: cmd, done: make(chan error, 1)}
	lines := bufio.NewScanner(stdout)
	addr := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if a, ok := strings.CutPrefix(lines.Text(), "deobserver listening on "); ok {
				addr <- a
			}
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("deobserver exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("deobserver did not report its address within 30s")
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain takes too long.
func (s *deobserver) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// inProcessServer runs the server package behind a loopback listener in
// this process, for the traced run, whose runtime and parse counters
// must see the engine. It uses the zero server.Config, whose documented
// defaults are deobserver's flag defaults;
// TestInProcessServerMatchesDeobserver compares the two servers.
func inProcessServer() (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := server.New(server.Config{})
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() { _ = hs.Serve(ln); close(done) }()
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		_ = hs.Shutdown(ctx)
		<-done
	}, nil
}

// reply is one timed request's outcome.
type reply struct {
	status int
	script string
	engine time.Duration
	res    *core.Result
	// due is when the schedule said to send, sent when the client did,
	// done when the reply was read.
	due, sent, done time.Time
}

// statsz is the part of GET /statsz the benchmark reads.
type statsz struct {
	Rejected   map[string]int64 `json:"rejected"`
	ParseCache struct {
		Hits, Misses   int64
		CoalescedWaits int64 `json:"coalesced_waits"`
	} `json:"parse_cache"`
	EvalCache *struct {
		Hits, Misses, Skips int64
		CoalescedWaits      int64 `json:"coalesced_waits"`
	} `json:"eval_cache"`
}

func (s *statsz) rejected() (n int64) {
	for _, v := range s.Rejected {
		n += v
	}
	return n
}

func (s *statsz) coalesced() int64 {
	n := s.ParseCache.CoalescedWaits
	if s.EvalCache != nil {
		n += s.EvalCache.CoalescedWaits
	}
	return n
}

func getStatsz(c *http.Client, url string) (*statsz, error) {
	resp, err := c.Get(url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	if st.EvalCache == nil {
		st.EvalCache = &struct {
			Hits, Misses, Skips int64
			CoalescedWaits      int64 `json:"coalesced_waits"`
		}{}
	}
	return &st, nil
}

// clientTimeout bounds one request.
const clientTimeout = time.Minute

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
		},
	}
}

// post sends one script and decodes the reply.
func post(c *http.Client, url, name, script string) (*reply, error) {
	body, _ := json.Marshal(map[string]string{"name": name, "lang": "powershell", "script": script})
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	r := &reply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		return r, nil
	}
	var rb struct {
		Script    string              `json:"script"`
		Stats     core.Stats          `json:"stats"`
		PassTrace []pipeline.PassStat `json:"pass_trace"`
		Layers    []string            `json:"layers"`
	}
	if err := json.Unmarshal(raw, &rb); err != nil {
		return nil, err
	}
	r.script, r.engine = rb.Script, rb.Stats.Duration
	r.res = &core.Result{Script: rb.Script, Layers: rb.Layers, Stats: rb.Stats, PassTrace: rb.PassTrace}
	return r, nil
}

// openLoop sends the schedule at serveRate from nproc client workers.
// Request k is due at start + k/rate and its latency runs from the due
// time, so time a request waits for a free client counts against the
// server. It returns the replies and the time from the first due time
// to the last completion.
func openLoop(c *http.Client, url string, uniques []sample, sched []int) ([]*reply, time.Duration, error) {
	replies := make([]*reply, len(sched))
	errs := make([]error, len(sched))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var last atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				due := start.Add(time.Duration(float64(k) / serveRate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				s := uniques[sched[k]]
				r, err := post(c, url, s.ID, s.Source)
				done := time.Now()
				if err != nil {
					errs[k] = err
					continue
				}
				r.due, r.sent, r.done = due, sent, done
				replies[k] = r
				for {
					l := last.Load()
					if done.UnixNano() <= l || last.CompareAndSwap(l, done.UnixNano()) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	return replies, time.Unix(0, last.Load()).Sub(start), nil
}

// checkReplies applies the output checks to one round: 200, parseable
// output, IOC recall, and a repeated script must come back exactly as it
// did the first time (shared caches must not change output). It returns
// the digest of the round's outputs.
func checkReplies(rep *report, uniques []sample, sched []int, replies []*reply) string {
	first := map[int]string{}
	outs := make([]string, len(sched))
	failed := make([]bool, len(sched))
	for k, i := range sched {
		r := replies[k]
		failed[k] = r.status != http.StatusOK
		outs[k] = r.script
		rep.out.check(r.script, failed[k], uniques[i].Truth)
		if failed[k] {
			continue
		}
		if prev, ok := first[i]; !ok {
			first[i] = r.script
		} else if prev != r.script {
			rep.problem("request %d repeats script %d but its output differs", k, i)
		}
	}
	return outputDigest(outs, failed)
}

// warmScripts prime a fresh server outside the measured schedule.
var warmScripts = []string{
	"Write-Host 'warm'",
	"IEX ('Wri' + 'te-Host 1')",
}

// serveRounds is how many fresh servers receive the schedule in one
// run. A request's latency is its median over the rounds, so a host
// stall during one send does not move the percentiles, as with corpus
// passes and gauntlet rounds.
const serveRounds = 3

// startWarm starts a server and primes it outside the schedule.
func startWarm(client *http.Client, bin string) (*deobserver, error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	for i, s := range append([]string{guardScript()}, warmScripts...) {
		r, err := post(client, srv.url+"/v1/deobfuscate", fmt.Sprintf("warm-%d", i), s)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("warm-up request got status %d", r.status)
		}
		if err != nil {
			srv.stop()
			return nil, err
		}
	}
	return srv, nil
}

// serveRound sends the schedule to a fresh server and returns the
// replies, the wall time, and the server's CPU time and peak RSS over
// the schedule.
func serveRound(client *http.Client, bin string, uniques []sample, sched []int) ([]*reply, time.Duration, time.Duration, float64, error) {
	srv, err := startWarm(client, bin)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	resetPeakRSS(pid)
	replies, wall, err := openLoop(client, srv.url+"/v1/deobfuscate", uniques, sched)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return replies, wall, cpu1 - cpu0, peakRSSMB(pid), nil
}

func runServe(cfg config) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	total := int(serveRate * cfg.seconds / serveRounds)
	sched := serveSchedule(total)
	var uniques []sample
	client := newClient()
	setup, err := timedSetup(rep, func() (string, error) {
		uniques = genCorpus(mix(cfg.seed, "serve", 0), (total+1)/2)
		if !cfg.trace {
			srv, err := startServer(cfg.deobserver)
			if err != nil {
				return "", err
			}
			srv.stop()
		}
		return inputDigest(uniques), nil
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup
	rep.inputs = len(sched)
	for _, i := range sched {
		rep.inputBytes += len(uniques[i].Source)
	}
	if cfg.trace {
		tr, err := traceServe(rep, client, uniques, sched)
		if err != nil {
			return nil, err
		}
		return rep, writeSpans(cfg, tr)
	}

	var walls, cpus, rss []float64
	lats := make([][]float64, len(sched))
	for round := 0; round < serveRounds; round++ {
		replies, wall, cpu, peak, err := serveRound(client, cfg.deobserver, uniques, sched)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		rss = append(rss, peak)
		for k, r := range replies {
			l := ms(r.done.Sub(r.due))
			if r.status != http.StatusOK {
				// A failed request misses any latency limit.
				l = ms(clientTimeout)
			}
			lats[k] = append(lats[k], l)
		}
		fmt.Fprintf(os.Stderr, "perfbench: serve round %d: wall %.3fs server cpu %.3fs\n", round, walls[round], cpus[round])
		if round == 0 {
			rep.digest = checkReplies(rep, uniques, sched, replies)
			continue
		}
		// Round 0 was checked; the same digest shows this round
		// produced the same outputs.
		var again report
		if dg := checkReplies(&again, uniques, sched, replies); dg != rep.digest {
			rep.problem("serve round %d output digest %s differs from round 0 (%s)", round, dg, rep.digest)
		}
	}
	rep.out.attempted *= serveRounds
	rep.out.failed *= serveRounds
	perRequest := perOpMedians(lats)
	rep.metrics["wall_s"] = median(walls)
	rep.metrics["cpu_s"] = median(cpus)
	rep.metrics["peak_rss_mb"] = median(rss)
	rep.metrics["latency_p50_ms"] = percentile(perRequest, 50)
	rep.metrics["latency_p95_ms"] = percentile(perRequest, 95)
	rep.metrics["pass_ratio"] = rep.out.passRatio()
	rep.metrics["ioc_recall"] = rep.out.iocRecall()
	return rep, nil
}

// traceServe is the traced serve run: the same schedule against an
// in-process server asked for every response's layers, with /statsz
// deltas, the Go runtime and parse counters around it, and the replay
// of every script and layer the engine saw.
func traceServe(rep *report, client *http.Client, uniques []sample, sched []int) (*tracer, error) {
	m := rep.metrics
	m["psparser.guard_parse_calls"] = guardParseCalls()
	url, stop, err := inProcessServer()
	if err != nil {
		return nil, err
	}
	defer stop()
	for i, s := range append([]string{guardScript()}, warmScripts...) {
		if _, err := post(client, url+"/v1/deobfuscate", fmt.Sprintf("warm-%d", i), s); err != nil {
			return nil, err
		}
	}
	before, err := getStatsz(client, url)
	if err != nil {
		return nil, err
	}
	m0, p0 := readMem(), psparser.ParseCalls()
	replies, _, err := openLoop(client, url+"/v1/deobfuscate?layers=1", uniques, sched)
	if err != nil {
		return nil, err
	}
	putRuntime(m, m0, readMem(), len(sched))
	m["psparser.parse_calls"] = float64(psparser.ParseCalls() - p0)
	after, err := getStatsz(client, url)
	if err != nil {
		return nil, err
	}
	rep.digest = checkReplies(rep, uniques, sched, replies)

	et, tr := newEngineTrace(), newTracer()
	var engine, overhead, late time.Duration
	for k, r := range replies {
		s := uniques[sched[k]]
		op := fmt.Sprintf("%s#%d", s.ID, k)
		id := tr.record("serve.request", op, 0, r.due, r.done)
		tr.record("http.Post", op, id, r.sent, r.done)
		et.add(op, s.Source, r.res)
		engine += r.engine
		overhead += r.done.Sub(r.due) - r.engine
		late += r.sent.Sub(r.due)
	}
	et.put(m)
	n := float64(len(replies))
	m["server.engine_ms"] = ms(engine) / n
	m["core.deobfuscate_ms"] = m["server.engine_ms"]
	m["server.overhead_ms"] = ms(overhead) / n
	m["generator.late_ms"] = ms(late) / n
	m["server.coalesced_waits"] = float64(after.coalesced() - before.coalesced())
	m["server.rejected"] = float64(after.rejected() - before.rejected())
	ph := float64(after.ParseCache.Hits - before.ParseCache.Hits)
	pm := float64(after.ParseCache.Misses - before.ParseCache.Misses)
	m["pipeline.parse_cache_hit_ratio"] = ratio(ph, ph+pm)
	eh := float64(after.EvalCache.Hits - before.EvalCache.Hits)
	em := float64(after.EvalCache.Misses - before.EvalCache.Misses + after.EvalCache.Skips - before.EvalCache.Skips)
	m["pipeline.eval_cache_hit_ratio"] = ratio(eh, eh+em)
	replayFront(tr, et.texts, m)
	notExercised(m, "obfuscate.apply_ms", "score.score_ms", "sandbox.run_ms", "bench.trace_overhead_s")
	return tr, nil
}
