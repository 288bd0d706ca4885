package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/gauntlet"
	"github.com/invoke-deobfuscation/invokedeob/internal/obfuscate"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/sandbox"
	"github.com/invoke-deobfuscation/invokedeob/internal/score"
)

// The grid: 24 clean samples × every profile × wrapper depth ≤ 3.
// gridSamples is a variable so the smoke test can shrink it.
var gridSamples = 24

const (
	gridMaxDepth = 3
	// gridSandboxSteps and the op timeout mirror gauntlet.Config's
	// defaults, so the cell replay runs what gauntlet.Run runs.
	gridSandboxSteps = 30_000_000
)

// cell is one (sample, profile, depth) grid cell with its obfuscated
// input, rebuilt outside gauntlet.Run for the replay.
type cell struct {
	sample  *corpus.Sample
	profile *obfuscate.Profile
	depth   int
	seed    int64
	obf     string
}

// gridConfig is the gauntlet.Run configuration of the workload.
func gridConfig() gauntlet.Config {
	return gauntlet.Config{
		Seed: gauntletSeed, Samples: gridSamples, MaxDepth: gridMaxDepth,
		Jobs: runtime.NumCPU(), Timeout: opTimeout, SandboxMaxSteps: gridSandboxSteps,
	}
}

// cellSeed is gauntlet's per-cell obfuscator seed derivation.
func cellSeed(base int64, sample, profile string, depth int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", base, sample, profile, depth)
	return int64(h.Sum64())
}

// buildCells rebuilds the grid's cells in gauntlet.Run's order.
func buildCells() []cell {
	samples := corpus.Generate(corpus.Config{Seed: gauntletSeed, N: gridSamples, PlainFraction: 1})
	var cells []cell
	for _, s := range samples {
		for _, name := range obfuscate.ProfileNames() {
			p, _ := obfuscate.GetProfile(name)
			depths := []int{0}
			if p.MaxDepth > 0 {
				depths = depths[:0]
				for d := 1; d <= min(p.MaxDepth, gridMaxDepth); d++ {
					depths = append(depths, d)
				}
			}
			for _, d := range depths {
				c := cell{sample: s, profile: p, depth: d, seed: cellSeed(gauntletSeed, s.ID, p.Name, d)}
				c.obf, _, _, _ = obfuscate.New(c.seed).ApplyProfile(s.Original, p, d)
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// reportDigest identifies a grid's verdicts, and counts cells that did
// not pass.
func reportDigest(rep *gauntlet.Report) (string, int) {
	parts := make([]string, 0, len(rep.Cases))
	notPassed := 0
	for _, c := range rep.Cases {
		if c.Outcome != gauntlet.OutcomePass {
			notPassed++
		}
		parts = append(parts, fmt.Sprintf("%s|%s|%d|%d|%s|%s|%d", c.Sample, c.Profile, c.Depth,
			c.Seed, strings.Join(c.Applied, ","), c.Outcome, c.ResidualScore))
	}
	return digest(parts), notPassed
}

// replayDeob deobfuscates every cell in grid order on one worker,
// sharing parse and eval caches across cells like gauntlet.Run, and
// returns outputs, failures and per-cell latencies. One worker keeps
// the cache state each cell sees, and so its latency, the same on
// every run.
func replayDeob(cells []cell) ([]string, []bool, []float64) {
	d := core.New(core.Options{})
	pc, ec := core.NewParseCache(4096, 16<<20), core.NewEvalCache(2048, 8<<20)
	outs := make([]string, len(cells))
	failed := make([]bool, len(cells))
	lats := make([]float64, len(cells))
	for i, c := range cells {
		res, took, err := deobShared(d, c.obf, pc, ec)
		lats[i] = ms(took)
		if err != nil || res.Stats.TimedOut {
			failed[i] = true
			lats[i] = ms(opTimeout)
			continue
		}
		outs[i] = res.Script
	}
	return outs, failed, lats
}

func deobShared(d *core.Deobfuscator, src string, pc *pipeline.Cache, ec *pipeline.EvalCache) (*core.Result, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	res, err := d.DeobfuscateShared(ctx, src, pc, ec)
	return res, time.Since(start), err
}

func runGauntlet(cfg config) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	var cells []cell
	setup, err := timedSetup(rep, func() (string, error) {
		cells = buildCells()
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c.obf
		}
		return digest(parts), nil
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup
	deob(core.New(core.Options{}), guardScript())
	rep.inputs = len(cells)
	for _, c := range cells {
		rep.inputBytes += len(c.obf)
	}
	if cfg.trace {
		tr, err := traceGauntlet(rep, cells)
		if err != nil {
			return nil, err
		}
		return rep, writeSpans(cfg, tr)
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	var walls, cpus, rss []float64
	lats := make([][]float64, len(cells))
	var grid, replay outcome
	rounds := 0
	begin := time.Now()
	for {
		resetPeakRSS(0)
		t0 := time.Now()
		c0 := selfCPU()
		gr, err := gauntlet.Run(context.Background(), gridConfig())
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (selfCPU() - c0).Seconds())
		gdg, notPassed := reportDigest(gr)
		grid.attempted += len(gr.Cases)
		grid.failed += notPassed

		r0 := time.Now()
		outs, failed, l := replayDeob(cells)
		fmt.Fprintf(os.Stderr, "perfbench: gauntlet round %d: grid wall %.3fs cpu %.3fs, replay %.3fs\n",
			rounds, walls[rounds], cpus[rounds], time.Since(r0).Seconds())
		for i := range l {
			lats[i] = append(lats[i], l[i])
		}
		rss = append(rss, peakRSSMB(0))
		dg := gdg + "-" + outputDigest(outs, failed)
		if rounds == 0 {
			rep.digest = dg
			for i, c := range cells {
				replay.check(outs[i], failed[i], c.sample.KeyInfo)
			}
		} else if dg != rep.digest {
			rep.problem("gauntlet round %d digest %s differs from round 0 (%s)", rounds, dg, rep.digest)
		}
		rounds++
		if time.Since(begin)+time.Since(t0) > budget {
			break
		}
	}
	rep.metrics["peak_rss_mb"] = median(rss)
	rep.out = grid
	rep.out.add(outcome{
		attempted: replay.attempted * rounds, failed: replay.failed * rounds,
		iocFound: replay.iocFound, iocTotal: replay.iocTotal,
	})
	rep.metrics["wall_s"] = median(walls)
	rep.metrics["cpu_s"] = median(cpus)
	perCell := perOpMedians(lats)
	rep.metrics["latency_p50_ms"] = percentile(perCell, 50)
	rep.metrics["latency_p95_ms"] = percentile(perCell, 95)
	rep.metrics["pass_ratio"] = rep.out.passRatio()
	rep.metrics["ioc_recall"] = rep.out.iocRecall()
	return rep, nil
}

// traceGauntlet is the traced gauntlet run: one gauntlet.Run under the
// runtime and parse counters, then a sequential replay of every cell
// through the calls gauntlet.Run makes (obfuscate, score, core,
// sandbox), each under a span, with the replayed cell checked against
// the grid's report.
func traceGauntlet(rep *report, cells []cell) (*tracer, error) {
	m := rep.metrics
	m["psparser.guard_parse_calls"] = guardParseCalls()
	tr := newTracer()
	m0, p0 := readMem(), psparser.ParseCalls()
	id := tr.begin("gauntlet.Run", "grid", 0)
	gr, err := gauntlet.Run(context.Background(), gridConfig())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	putRuntime(m, m0, readMem(), len(gr.Cases))
	m["psparser.parse_calls"] = float64(psparser.ParseCalls() - p0)
	gdg, notPassed := reportDigest(gr)
	rep.out.attempted, rep.out.failed = len(gr.Cases), notPassed
	if len(gr.Cases) != len(cells) {
		return nil, fmt.Errorf("grid has %d cells, replay built %d", len(gr.Cases), len(cells))
	}

	d := core.New(core.Options{})
	pc, ec := core.NewParseCache(4096, 16<<20), core.NewEvalCache(2048, 8<<20)
	et := newEngineTrace()
	origRuns := map[string]bool{}
	outs := make([]string, len(cells))
	failed := make([]bool, len(cells))
	for i, c := range cells {
		cr := gr.Cases[i]
		if cr.Sample != c.sample.ID || cr.Profile != c.profile.Name || cr.Depth != c.depth || cr.Seed != c.seed {
			rep.problem("replay cell %d is %s/%s/%d, grid cell is %s/%s/%d", i, c.sample.ID, c.profile.Name, c.depth, cr.Sample, cr.Profile, cr.Depth)
			continue
		}
		op := fmt.Sprintf("%s/%s/%d", c.sample.ID, c.profile.Name, c.depth)
		cellSpan := tr.begin("gauntlet.cell", op, 0)
		sbox := func(src string) {
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			id := tr.begin("sandbox.RunContext", op, cellSpan)
			sandbox.RunContext(ctx, src, sandbox.Options{MaxSteps: gridSandboxSteps})
			tr.end(id)
		}
		scored := func(src string) int {
			id := tr.begin("score.Score", op, cellSpan)
			defer tr.end(id)
			return score.Score(src)
		}
		if !origRuns[c.sample.ID] {
			origRuns[c.sample.ID] = true
			sbox(c.sample.Original)
		}
		id := tr.begin("obfuscate.ApplyProfile", op, cellSpan)
		obf, _, _, oerr := obfuscate.New(c.seed).ApplyProfile(c.sample.Original, c.profile, c.depth)
		tr.end(id)
		if oerr != nil || obf != c.obf {
			rep.problem("cell %d obfuscates differently on replay", i)
			tr.end(cellSpan)
			continue
		}
		scored(c.sample.Original)
		scored(obf)
		id = tr.begin("core.DeobfuscateShared", op, cellSpan)
		res, _, derr := deobShared(d, obf, pc, ec)
		tr.end(id)
		et.add(op, obf, res)
		if derr != nil || res.Stats.TimedOut {
			failed[i] = true
			tr.end(cellSpan)
			continue
		}
		outs[i] = res.Script
		if got := scored(res.Script); got != cr.ResidualScore {
			rep.problem("cell %d residual score %d on replay, %d in the grid", i, got, cr.ResidualScore)
		}
		sbox(res.Script)
		tr.end(cellSpan)
	}
	var replay outcome
	for i, c := range cells {
		replay.check(outs[i], failed[i], c.sample.KeyInfo)
	}
	rep.out.add(replay)
	rep.digest = gdg + "-" + outputDigest(outs, failed)
	et.put(m)
	// Per cell: every call the cell made to the layer, summed.
	perCell := func(name string) float64 {
		d, _ := tr.total(name)
		return ms(d) / float64(len(cells))
	}
	m["obfuscate.apply_ms"] = perCell("obfuscate.ApplyProfile")
	m["score.score_ms"] = perCell("score.Score")
	m["sandbox.run_ms"] = perCell("sandbox.RunContext")
	m["core.deobfuscate_ms"] = perCell("core.DeobfuscateShared")
	replayFront(tr, et.texts, m)
	notExercised(m, "server.engine_ms", "server.overhead_ms", "server.coalesced_waits",
		"server.rejected", "generator.late_ms", "bench.trace_overhead_s")
	return tr, nil
}
