package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// corpusSize is the number of samples in one corpus pass (a variable
// so the smoke test can shrink it).
var corpusSize = 200

// opTimeout is the per-script envelope deadline of library calls.
const opTimeout = 10 * time.Second

// deob runs one default-options library call under the envelope
// deadline. failed is set on an error or a partial (timed-out) result.
func deob(d *core.Deobfuscator, src string) (res *core.Result, out string, failed bool, took time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	res, err := d.DeobfuscateContext(ctx, src)
	took = time.Since(start)
	if err != nil || res == nil || res.Stats.TimedOut {
		// A failed operation misses any latency limit.
		return res, "", true, opTimeout
	}
	return res, res.Script, false, took
}

// inputDigest identifies a generated sample set.
func inputDigest(samples []sample) string {
	parts := make([]string, 0, 2*len(samples))
	for _, s := range samples {
		parts = append(parts, s.Source, s.Original)
	}
	return digest(parts)
}

// outputDigest identifies one pass's outputs; a failed operation
// contributes a marker instead of text.
func outputDigest(outs []string, failed []bool) string {
	parts := make([]string, len(outs))
	for i, o := range outs {
		parts[i] = o
		if failed[i] {
			parts[i] = "\x00failed"
		}
	}
	return digest(parts)
}

func runCorpus(cfg config) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	var samples []sample
	setup, err := timedSetup(rep, func() (string, error) {
		samples = genCorpus(cfg.seed, corpusSize)
		return inputDigest(samples), nil
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup
	// Warm-up: fault in the engine's code paths and lazily built tables
	// on the fixed guard script and the first slots.
	warm := core.New(core.Options{})
	deob(warm, guardScript())
	for _, s := range samples[:min(10, len(samples))] {
		deob(warm, s.Source)
	}
	rep.inputs = len(samples)
	for _, s := range samples {
		rep.inputBytes += len(s.Source)
	}
	if cfg.trace {
		return rep, writeSpans(cfg, traceCorpus(rep, samples))
	}

	d := core.New(core.Options{})
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var walls, cpus, rss []float64
	lats := make([][]float64, len(samples))
	var first outcome
	passes := 0
	begin := time.Now()
	for {
		outs := make([]string, len(samples))
		failed := make([]bool, len(samples))
		resetPeakRSS(0)
		c0, t0 := selfCPU(), time.Now()
		for i, s := range samples {
			_, out, f, took := deob(d, s.Source)
			outs[i], failed[i] = out, f
			lats[i] = append(lats[i], ms(took))
		}
		wall := time.Since(t0)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (selfCPU() - c0).Seconds())
		rss = append(rss, peakRSSMB(0))
		fmt.Fprintf(os.Stderr, "perfbench: corpus pass %d: wall %.3fs cpu %.3fs\n", passes, walls[passes], cpus[passes])
		dg := outputDigest(outs, failed)
		if passes == 0 {
			rep.digest = dg
			for i, s := range samples {
				first.check(outs[i], failed[i], s.Truth)
			}
		} else if dg != rep.digest {
			rep.problem("corpus pass %d output digest %s differs from pass 0 (%s)", passes, dg, rep.digest)
		}
		passes++
		if time.Since(begin)+wall > budget {
			break
		}
	}
	rep.metrics["peak_rss_mb"] = median(rss)
	// Every pass produced the digest of pass 0, so its tally holds for
	// each of them.
	rep.out = outcome{
		attempted: first.attempted * passes, failed: first.failed * passes,
		iocFound: first.iocFound, iocTotal: first.iocTotal,
	}
	rep.metrics["wall_s"] = median(walls)
	rep.metrics["cpu_s"] = median(cpus)
	perSample := perOpMedians(lats)
	rep.metrics["latency_p50_ms"] = percentile(perSample, 50)
	rep.metrics["latency_p95_ms"] = percentile(perSample, 95)
	rep.metrics["pass_ratio"] = rep.out.passRatio()
	rep.metrics["ioc_recall"] = rep.out.iocRecall()
	return rep, nil
}

// guardParseCalls counts psparser.Parse calls of one warm default run
// over the 3-layer guard script.
func guardParseCalls() float64 {
	d := core.New(core.Options{})
	deob(d, guardScript())
	before := psparser.ParseCalls()
	deob(d, guardScript())
	return float64(psparser.ParseCalls() - before)
}

// traceCorpus is the traced corpus run: an untraced pass, two traced
// passes whose engine counters, parse calls and allocation must repeat,
// a second untraced pass, then the replay of every recorded text
// through the detection, tokenizer and parser layers. It returns the
// spans of the first traced pass and the replay.
func traceCorpus(rep *report, samples []sample) *tracer {
	m := rep.metrics
	m["psparser.guard_parse_calls"] = guardParseCalls()
	d := core.New(core.Options{})
	untracedPass := func() time.Duration {
		t0 := time.Now()
		for _, s := range samples {
			deob(d, s.Source)
		}
		return time.Since(t0)
	}
	untraced := untracedPass()

	var traces [2]*engineTrace
	var spans [2]*tracer
	var parses [2]int64
	var mems [2][2]memCounters
	var walls [2]time.Duration
	for k := range traces {
		et, tr := newEngineTrace(), newTracer()
		outs := make([]string, len(samples))
		failed := make([]bool, len(samples))
		p0 := psparser.ParseCalls()
		mems[k][0] = readMem()
		t0 := time.Now()
		for i, s := range samples {
			id := tr.begin("core.DeobfuscateContext", s.ID, 0)
			res, out, f, _ := deob(d, s.Source)
			tr.end(id)
			et.add(s.ID, s.Source, res)
			outs[i], failed[i] = out, f
		}
		walls[k] = time.Since(t0)
		mems[k][1] = readMem()
		parses[k] = psparser.ParseCalls() - p0
		traces[k], spans[k] = et, tr
		if k == 0 {
			rep.digest = outputDigest(outs, failed)
			for i, s := range samples {
				rep.out.check(outs[i], failed[i], s.Truth)
			}
		}
	}
	if traces[0].counts() != traces[1].counts() {
		rep.problem("engine counters differ between two traced passes: %v vs %v", traces[0].counts(), traces[1].counts())
	}
	if parses[0] != parses[1] {
		rep.problem("parse calls differ between two traced passes: %d vs %d", parses[0], parses[1])
	}
	// Allocation repeats to within 0.1% or 1 MiB, not to the byte: which
	// pieces the piece pool evaluates off the walk goroutine depends on
	// scheduling, and moves a 200-sample pass's total by about 0.02%.
	alloc := func(k int) float64 { return float64(mems[k][1].alloc - mems[k][0].alloc) }
	if a, b := alloc(0), alloc(1); !raceBuild && math.Abs(a-b) > max(a/1000, 1<<20) {
		rep.problem("allocated bytes differ between two traced passes: %.0f vs %.0f", a, b)
	}
	untraced = (untraced + untracedPass()) / 2
	traces[0].put(m)
	putRuntime(m, mems[0][0], mems[0][1], len(samples))
	m["psparser.parse_calls"] = float64(parses[0])
	m["core.deobfuscate_ms"] = meanMS(spans[0], "core.DeobfuscateContext")
	m["bench.trace_overhead_s"] = ((walls[0]+walls[1])/2 - untraced).Seconds()
	replayFront(spans[0], traces[0].texts, m)
	notExercised(m, "obfuscate.apply_ms", "score.score_ms", "sandbox.run_ms",
		"server.engine_ms", "server.overhead_ms", "server.coalesced_waits",
		"server.rejected", "generator.late_ms")
	return spans[0]
}

// notExercised reports 0 for layers a workload does not run.
func notExercised(m map[string]float64, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}
