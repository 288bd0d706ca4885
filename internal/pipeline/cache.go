// Package pipeline provides the language-neutral pass-pipeline
// architecture the deobfuscation engine is built on: a bounded,
// content-hash-keyed parse cache shared by every phase of a run (and,
// in batch mode, across scripts), a Document type that lazily memoizes
// its token stream and AST through that cache, a Pass interface the
// engine's phases implement, and a Runner/Trace pair that records
// per-pass duration, bytes in/out, reverts and cache hit rates.
//
// The package knows nothing about any concrete language: tokenizing
// and parsing are delegated to a Lang (the structural subset of a
// frontend), artifacts are opaque `any` values the owning frontend
// asserts back to its concrete types, and every cache key is
// namespaced by the frontend's name so identical bytes submitted as
// different languages can never collide.
//
// The cache is the amortization foothold: the fixpoint loop, the
// per-splice validity checks, literal detection, piece evaluation,
// unwrap, rename and reformat all ask the same cache, so identical text
// is tokenized and parsed at most once per run instead of once per
// consumer.
//
// For serving workloads the cache is a striped tier: entries are
// sharded by content hash across power-of-two independent shards
// (each with its own lock and LRU list), so concurrent requests on a
// many-core server contend on 1/N of the lock traffic instead of one
// global mutex, and artifact computation is coalesced — concurrent
// requests for the same (language, text) block on one computation
// instead of racing duplicates through the parser.
package pipeline

import (
	"container/list"
	"errors"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
)

// Lang is the minimal structural surface of a language frontend the
// pipeline needs: a stable name (the cache namespace) and the two
// artifact producers. The full frontend.Frontend interface satisfies
// Lang; pipeline deliberately depends on nothing more so the frontend
// package can import pipeline without a cycle.
type Lang interface {
	// Name identifies the language ("powershell", "javascript"). It is
	// part of every cache key.
	Name() string
	// Tokenize produces the language's token-stream artifact.
	Tokenize(src string) (any, error)
	// Parse produces the language's AST artifact. A nil error means the
	// source is syntactically valid.
	Parse(src string) (any, error)
}

// ErrNoLang is returned by Views and Documents that were constructed
// without a language.
var ErrNoLang = errors.New("pipeline: no language frontend attached")

// Default cache bounds. Hostile inputs that manufacture unbounded
// distinct sub-texts (every splice producing new candidate strings)
// cannot balloon the cache past these: the least-recently-used entries
// are evicted once either bound is exceeded.
const (
	// DefaultMaxEntries bounds the number of distinct cached texts.
	DefaultMaxEntries = 4096
	// DefaultMaxBytes bounds the total bytes of cached source text
	// (the dominant memory term; ASTs and token slices are proportional).
	DefaultMaxBytes = 16 << 20
	// maxCacheableText is the largest single text worth caching; bigger
	// texts are parsed directly so one giant layer cannot evict the
	// whole working set.
	maxCacheableText = 4 << 20
)

// Shard sizing. The shard count is a power of two scaled from
// GOMAXPROCS (several stripes per core so two hot keys rarely share a
// lock) and then scaled *down* until every shard keeps a useful
// working set — a tiny cache degenerates to one shard, which behaves
// exactly like the historical single-mutex cache.
const (
	// maxShards caps the stripe count regardless of core count.
	maxShards = 256
	// minShardEntries / minShardBytes are the smallest per-shard
	// budgets worth striping; below them the shard count halves.
	minShardEntries = 64
	minShardBytes   = 64 << 10
)

// defaultShardCount returns the GOMAXPROCS-scaled power-of-two stripe
// count before bound-scaling: 8 stripes per core, clamped to
// [8, maxShards].
func defaultShardCount() int {
	n := 8
	target := 8 * runtime.GOMAXPROCS(0)
	for n < target && n < maxShards {
		n <<= 1
	}
	return n
}

// shardCount resolves the effective stripe count for the given bounds:
// requested (0 = default) rounded up to a power of two, capped at
// maxShards, then halved until every shard holds at least
// minShardEntries entries and minShardBytes bytes.
func shardCount(requested, maxEntries int, maxBytes int64) int {
	n := requested
	if n <= 0 {
		n = defaultShardCount()
	} else {
		p := 1
		for p < n && p < maxShards {
			p <<= 1
		}
		n = p
	}
	if n > maxShards {
		n = maxShards
	}
	for n > 1 && (maxEntries/n < minShardEntries || maxBytes/int64(n) < minShardBytes) {
		n >>= 1
	}
	return n
}

// hashSeed is the process-wide seed for content hashing. A fixed seed
// per process is fine: buckets compare full text, so collisions cost
// a chain walk, never a wrong answer.
var hashSeed = maphash.MakeSeed()

// hashKey hashes a (language, text) pair. The NUL separator keeps the
// namespace unambiguous (language names never contain NUL).
func hashKey(lang, text string) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	h.WriteString(lang)
	h.WriteByte(0)
	h.WriteString(text)
	return h.Sum64()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts artifact requests answered from memory.
	Hits int64
	// Misses counts artifact requests that had to tokenize or parse.
	Misses int64
	// Evictions counts entries dropped to stay within bounds.
	Evictions int64
	// Entries is the current number of cached texts.
	Entries int
	// Bytes is the current total of cached source-text bytes.
	Bytes int64
	// Shards is the number of independent lock stripes.
	Shards int
	// CoalescedWaits counts requests that blocked on another request's
	// in-flight computation of the same artifact instead of computing a
	// duplicate (the singleflight payoff).
	CoalescedWaits int64
	// Warmed counts entries preloaded from a warm-restart snapshot.
	Warmed int64
	// WarmHits counts hits served by a snapshot-preloaded artifact —
	// work a cold-started process would have had to redo.
	WarmHits int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic. Serving
// frontends surface this per scrape; because Stats() snapshots each
// shard's counters under its lock, the ratio is internally consistent
// even while concurrent requests keep hitting the cache.
func (s CacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// LangCacheStats is the per-language slice of a cache's traffic,
// reported by LangStats so serving frontends can attribute hit rates
// to frontends without conflating mixed-language traffic.
type LangCacheStats struct {
	// Hits / Misses count this language's artifact requests only.
	Hits, Misses int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s LangCacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Artifact-slot states. A slot is the singleflight cell for one
// artifact (token stream or AST) of one entry.
const (
	slotEmpty = iota
	slotComputing
	slotDone
)

// artifactSlot memoizes one artifact with explicit singleflight: the
// first requester becomes the leader and computes; concurrent
// requesters wait on done and are counted as coalesced. A leader that
// panics resets the slot to empty before propagating, so waiters retry
// the computation themselves instead of inheriting a poisoned cell —
// each caller's own envelope classifies its own failure.
type artifactSlot struct {
	state int
	done  chan struct{} // non-nil while state == slotComputing
	val   any
	err   error
	// warm marks an artifact derived by snapshot Preload; hits on it
	// are the warm-restart payoff and counted separately.
	warm bool
}

// cacheEntry memoizes the artifacts of one exact (language, text)
// pair. Each artifact is computed at most once per generation even
// under concurrent workers; an entry evicted mid-flight stays valid
// for the goroutines already holding it.
type cacheEntry struct {
	lang string
	text string

	mu  sync.Mutex
	tok artifactSlot
	ast artifactSlot

	// elem is the entry's node in its shard's LRU list (guarded by the
	// shard lock, not e.mu).
	elem *list.Element
}

// artifact returns the slot's memoized value, computing it via the
// singleflight protocol when absent. The hit result reports whether
// the value came from memory; warm reports a hit on a
// snapshot-preloaded artifact. onWait is invoked once each time this
// caller blocks on another goroutine's in-flight computation.
func (e *cacheEntry) artifact(slot *artifactSlot, compute func() (any, error), onWait func()) (val any, err error, hit, warm bool) {
	for {
		e.mu.Lock()
		switch slot.state {
		case slotDone:
			val, err, warm = slot.val, slot.err, slot.warm
			e.mu.Unlock()
			return val, err, true, warm
		case slotEmpty:
			slot.state = slotComputing
			slot.done = make(chan struct{})
			e.mu.Unlock()
			val, err = e.lead(slot, compute)
			return val, err, false, false
		default: // slotComputing
			ch := slot.done
			e.mu.Unlock()
			if onWait != nil {
				onWait()
			}
			<-ch
			// Loop: the leader published a result (done), or aborted
			// (empty again — this waiter retries as the new leader).
		}
	}
}

// lead runs the computation as the slot's leader and publishes the
// result. If compute panics, the slot is reset to empty — never marked
// done with a half-written value — and the panic propagates to the
// leader alone: its own run's recover turns it into that run's
// taxonomy error, while waiters retry rather than being poisoned by
// someone else's envelope violation.
func (e *cacheEntry) lead(slot *artifactSlot, compute func() (any, error)) (val any, err error) {
	completed := false
	defer func() {
		e.mu.Lock()
		if completed {
			slot.state = slotDone
			slot.val, slot.err = val, err
		} else {
			slot.state = slotEmpty
		}
		ch := slot.done
		slot.done = nil
		e.mu.Unlock()
		close(ch)
	}()
	val, err = compute()
	completed = true
	return val, err
}

// publish installs an externally synthesized artifact into an empty
// slot. It never overwrites a live or completed computation: splice
// synthesis and a concurrent fresh parse of the same text must agree
// (both describe the same bytes), so first-writer-wins is safe and
// keeps the singleflight invariants — a slotComputing leader still owns
// its done channel. Reports whether the value was installed.
func (e *cacheEntry) publish(slot *artifactSlot, val any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if slot.state != slotEmpty {
		return false
	}
	slot.state = slotDone
	slot.val, slot.err = val, nil
	return true
}

// preload derives the slot's artifact eagerly (snapshot load path) and
// marks it warm. It never overwrites a live computation: if another
// goroutine is computing or has computed, preload leaves the slot
// alone and reports false.
func (e *cacheEntry) preload(slot *artifactSlot, compute func() (any, error)) bool {
	e.mu.Lock()
	if slot.state != slotEmpty {
		e.mu.Unlock()
		return false
	}
	slot.state = slotComputing
	slot.done = make(chan struct{})
	e.mu.Unlock()
	var val any
	var err error
	completed := false
	defer func() {
		e.mu.Lock()
		if completed {
			slot.state = slotDone
			slot.val, slot.err = val, err
			slot.warm = true
		} else {
			slot.state = slotEmpty
		}
		ch := slot.done
		slot.done = nil
		e.mu.Unlock()
		close(ch)
	}()
	val, err = compute()
	completed = true
	return true
}

// cacheShard is one independent stripe: its own lock, hash buckets,
// LRU list, byte budget and counters. Entries never migrate between
// shards (the content hash pins them), so every per-text invariant —
// memoize-once, per-language stats, LRU recency — holds per shard.
type cacheShard struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	buckets    map[uint64][]*cacheEntry
	lru        *list.List // front = most recently used

	hits, misses, evictions int64
	perLang                 map[string]*LangCacheStats
}

func newCacheShard(maxEntries int, maxBytes int64) *cacheShard {
	return &cacheShard{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		buckets:    make(map[uint64][]*cacheEntry),
		lru:        list.New(),
		perLang:    make(map[string]*LangCacheStats),
	}
}

// Cache is a bounded, thread-safe memoization of tokenize/parse results
// keyed by content hash over (language, text) — verified against both,
// so hash collisions degrade to misses, never wrong answers, and the
// same bytes cached for one language are invisible to another. One
// Cache serves one deobfuscation run, or — in batch and server mode —
// is shared by all workers so identical layers across scripts parse
// once per language.
//
// Internally the cache is striped across power-of-two shards selected
// by content hash, each with per-shard LRU eviction, and artifact
// computation is singleflight-coalesced per entry; see the package
// comment.
type Cache struct {
	shards    []*cacheShard
	shardMask uint64

	coalescedWaits atomic.Int64
	warmed         atomic.Int64
	warmHits       atomic.Int64
}

// NewCache returns a Cache bounded by maxEntries texts and maxBytes of
// cached source, striped across the default GOMAXPROCS-scaled shard
// count. Non-positive arguments select the defaults.
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return NewCacheSharded(maxEntries, maxBytes, 0)
}

// NewCacheSharded is NewCache with an explicit shard count: rounded up
// to a power of two, capped at 256, and scaled down until each shard's
// slice of the entry/byte budget stays useful. shards <= 0 selects the
// GOMAXPROCS-scaled default; shards == 1 reproduces the historical
// single-mutex cache (the benchmark baseline).
func NewCacheSharded(maxEntries int, maxBytes int64, shards int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	n := shardCount(shards, maxEntries, maxBytes)
	c := &Cache{
		shards:    make([]*cacheShard, n),
		shardMask: uint64(n - 1),
	}
	perEntries := maxEntries / n
	if perEntries < 1 {
		perEntries = 1
	}
	perBytes := maxBytes / int64(n)
	if perBytes < 1 {
		perBytes = 1
	}
	for i := range c.shards {
		c.shards[i] = newCacheShard(perEntries, perBytes)
	}
	return c
}

// shard returns the stripe owning key.
func (c *Cache) shard(key uint64) *cacheShard { return c.shards[key&c.shardMask] }

// ShardCount reports the number of lock stripes.
func (c *Cache) ShardCount() int { return len(c.shards) }

// lookup returns the entry for (lang, text), creating (and bounding) it
// as needed, and bumps it to most-recently-used. A nil return means the
// text is too large to cache.
func (c *Cache) lookup(lang, text string, key uint64) *cacheEntry {
	if len(text) > maxCacheableText {
		return nil
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, e := range sh.buckets[key] {
		if e.lang == lang && e.text == text {
			sh.lru.MoveToFront(e.elem)
			return e
		}
	}
	e := &cacheEntry{lang: lang, text: text}
	sh.buckets[key] = append(sh.buckets[key], e)
	e.elem = sh.lru.PushFront(e)
	sh.bytes += int64(len(text))
	for (sh.lru.Len() > sh.maxEntries || sh.bytes > sh.maxBytes) && sh.lru.Len() > 1 {
		sh.evictOldestLocked()
	}
	return e
}

// evictOldestLocked drops the least-recently-used entry. Callers hold
// sh.mu.
func (sh *cacheShard) evictOldestLocked() {
	back := sh.lru.Back()
	if back == nil {
		return
	}
	victim := sh.lru.Remove(back).(*cacheEntry)
	key := hashKey(victim.lang, victim.text)
	bucket := sh.buckets[key]
	for i, e := range bucket {
		if e == victim {
			sh.buckets[key] = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(sh.buckets[key]) == 0 {
		delete(sh.buckets, key)
	}
	sh.bytes -= int64(len(victim.text))
	sh.evictions++
}

// record folds a hit/miss observation into the owning shard's global
// and per-language counters.
func (c *Cache) record(lang string, key uint64, hit bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	ls := sh.perLang[lang]
	if ls == nil {
		ls = &LangCacheStats{}
		sh.perLang[lang] = ls
	}
	if hit {
		sh.hits++
		ls.Hits++
	} else {
		sh.misses++
		ls.Misses++
	}
	sh.mu.Unlock()
}

// Tokenize returns the (possibly memoized) token artifact of src under
// language l. The returned artifact is shared: callers must not mutate
// it.
func (c *Cache) Tokenize(l Lang, src string) (any, error) {
	toks, err, _ := c.tokenize(l, src)
	return toks, err
}

func (c *Cache) tokenize(l Lang, src string) (any, error, bool) {
	if l == nil {
		return nil, ErrNoLang, false
	}
	lang := l.Name()
	key := hashKey(lang, src)
	e := c.lookup(lang, src, key)
	if e == nil {
		toks, err := l.Tokenize(src)
		c.record(lang, key, false)
		return toks, err, false
	}
	toks, err, hit, warm := e.artifact(&e.tok,
		func() (any, error) { return l.Tokenize(e.text) },
		func() { c.coalescedWaits.Add(1) })
	c.record(lang, key, hit)
	if hit && warm {
		c.warmHits.Add(1)
	}
	return toks, err, hit
}

// Parse returns the (possibly memoized) AST artifact of src under
// language l. Parse errors are memoized too — a failed candidate
// rejected once by a validity check is never re-parsed. The returned
// AST is shared: callers must treat it as immutable (every consumer in
// this codebase walks ASTs read-only).
func (c *Cache) Parse(l Lang, src string) (any, error) {
	sb, err, _ := c.parse(l, src)
	return sb, err
}

func (c *Cache) parse(l Lang, src string) (any, error, bool) {
	if l == nil {
		return nil, ErrNoLang, false
	}
	lang := l.Name()
	key := hashKey(lang, src)
	e := c.lookup(lang, src, key)
	if e == nil {
		sb, err := l.Parse(src)
		c.record(lang, key, false)
		return sb, err, false
	}
	sb, err, hit, warm := e.artifact(&e.ast,
		func() (any, error) { return l.Parse(e.text) },
		func() { c.coalescedWaits.Add(1) })
	c.record(lang, key, hit)
	if hit && warm {
		c.warmHits.Add(1)
	}
	return sb, err, hit
}

// Valid reports whether src parses under language l, through the cache.
func (c *Cache) Valid(l Lang, src string) bool {
	_, err := c.Parse(l, src)
	return err == nil
}

// Preload inserts text into the cache and derives both artifacts
// eagerly, marking them warm — the snapshot-load path. Unlike
// Tokenize/Parse it records neither hits nor misses (a restart is not
// traffic), so /statsz hit rates reflect only real requests. It
// reports whether at least one artifact was derived here (false when
// the text is oversize or already live).
func (c *Cache) Preload(l Lang, text string) bool {
	if l == nil || len(text) > maxCacheableText {
		return false
	}
	lang := l.Name()
	e := c.lookup(lang, text, hashKey(lang, text))
	if e == nil {
		return false
	}
	tok := e.preload(&e.tok, func() (any, error) { return l.Tokenize(e.text) })
	ast := e.preload(&e.ast, func() (any, error) { return l.Parse(e.text) })
	if tok || ast {
		c.warmed.Add(1)
		return true
	}
	return false
}

// Insert publishes synthesized artifacts for (l, text) without running
// the language's tokenizer or parser — the incremental-splice path,
// where the frontend assembles the new text's token stream and AST from
// already-validated slices and shifted reuse of the old artifacts.
// Artifacts must be exactly what Tokenize/Parse would produce for text;
// the cache trusts the frontend on this (the splice fuzz suite checks
// it against full-reparse ground truth). Either artifact may be nil to
// skip that slot. Existing or in-flight artifacts are never overwritten,
// and no hits or misses are recorded (synthesis is not traffic).
// Reports whether at least one artifact was installed (false also for
// oversize texts, which are never cached).
func (c *Cache) Insert(l Lang, text string, tokens, ast any) bool {
	if l == nil {
		return false
	}
	lang := l.Name()
	e := c.lookup(lang, text, hashKey(lang, text))
	if e == nil {
		return false
	}
	installed := false
	if tokens != nil && e.publish(&e.tok, tokens) {
		installed = true
	}
	if ast != nil && e.publish(&e.ast, ast) {
		installed = true
	}
	return installed
}

// SnapshotEntry is one cached source text in a warm-restart snapshot:
// the language namespace plus the exact text. Artifacts are never
// serialized — they are re-derived on load, which keeps the format
// frontend-agnostic and immune to artifact-layout drift.
type SnapshotEntry struct {
	Lang string
	Text string
}

// SnapshotTexts returns every cached (language, text) pair, oldest
// first per shard, for warm-restart persistence. Re-inserting in the
// returned order approximately reproduces the LRU recency order.
func (c *Cache) SnapshotTexts() []SnapshotEntry {
	var out []SnapshotEntry
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			out = append(out, SnapshotEntry{Lang: e.lang, Text: e.text})
		}
		sh.mu.Unlock()
	}
	return out
}

// Stats snapshots the cache counters, summed across shards.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Shards:         len(c.shards),
		CoalescedWaits: c.coalescedWaits.Load(),
		Warmed:         c.warmed.Load(),
		WarmHits:       c.warmHits.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += sh.lru.Len()
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// ShardOccupancy reports the current entry count of every shard, in
// shard order — the /statsz surface for spotting skewed stripes.
func (c *Cache) ShardOccupancy() []int {
	out := make([]int, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		out[i] = sh.lru.Len()
		sh.mu.Unlock()
	}
	return out
}

// LangStats snapshots the per-language hit/miss counters, summed
// across shards. Because every (language, text) key lives in exactly
// one shard and each observation lands in that shard's counter, the
// summed per-language hit rates are exactly the single-mutex
// semantics.
func (c *Cache) LangStats() map[string]LangCacheStats {
	out := make(map[string]LangCacheStats)
	for _, sh := range c.shards {
		sh.mu.Lock()
		for lang, ls := range sh.perLang {
			agg := out[lang]
			agg.Hits += ls.Hits
			agg.Misses += ls.Misses
			out[lang] = agg
		}
		sh.mu.Unlock()
	}
	return out
}

// Entries reports the number of distinct cached (language, text) pairs.
func (c *Cache) Entries() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// View returns a per-run accounting view of the cache bound to one
// language. Views forward every request to the shared Cache but keep
// their own hit/miss counters, so per-pass trace attribution stays
// exact even when many batch workers share one Cache. A View is not
// safe for concurrent use; each run owns its own.
func (c *Cache) View(l Lang) *View {
	return &View{c: c, lang: l}
}

// View is a single-run, single-language window onto a shared Cache.
// See Cache.View.
type View struct {
	c    *Cache
	lang Lang
	// Hits and Misses count this view's requests only.
	Hits, Misses int64
}

// Cache returns the underlying shared cache.
func (v *View) Cache() *Cache { return v.c }

// Lang returns the language this view is bound to.
func (v *View) Lang() Lang { return v.lang }

func (v *View) observe(hit bool) {
	if hit {
		v.Hits++
	} else {
		v.Misses++
	}
}

// Tokenize is Cache.Tokenize with per-view accounting.
func (v *View) Tokenize(src string) (any, error) {
	toks, err, hit := v.c.tokenize(v.lang, src)
	v.observe(hit)
	return toks, err
}

// Parse is Cache.Parse with per-view accounting.
func (v *View) Parse(src string) (any, error) {
	sb, err, hit := v.c.parse(v.lang, src)
	v.observe(hit)
	return sb, err
}

// Valid reports whether src parses, with per-view accounting.
func (v *View) Valid(src string) bool {
	_, err := v.Parse(src)
	return err == nil
}

// Insert is Cache.Insert under this view's language. Like the Cache
// method it records no hits or misses; subsequent Tokenize/Parse calls
// on the same text count as ordinary hits.
func (v *View) Insert(text string, tokens, ast any) bool {
	return v.c.Insert(v.lang, text, tokens, ast)
}

// defaultCache backs package-level conveniences (facade ValidSyntax):
// a process-wide bounded cache so repeated validity checks over the
// same scripts — corpus preprocessing, experiment funnels — parse once.
var defaultCache = NewCache(0, 0)

// DefaultCache returns the process-wide shared cache.
func DefaultCache() *Cache { return defaultCache }
