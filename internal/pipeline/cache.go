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
// For serving workloads the cache is shared across requests behind one
// mutex, and artifact computation is coalesced — concurrent requests
// for the same (language, text) block on one computation instead of
// racing duplicates through the parser.
package pipeline

import (
	"container/list"
	"errors"
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

// CacheStats is a point-in-time snapshot of a parse or eval cache's
// effectiveness.
type CacheStats struct {
	// Hits counts requests answered from memory (tokenizes, parses or
	// interpreter runs saved).
	Hits int64
	// Misses counts requests that had to tokenize, parse or evaluate.
	Misses int64
	// Skips counts evaluations that completed but were not cacheable
	// (impure, oversized, or holding uncopyable values). A parse cache
	// reports 0.
	Skips int64
	// Evictions counts entries dropped to stay within bounds.
	Evictions int64
	// Entries is the current number of cached texts or results.
	Entries int
	// Bytes is the current total of cached bytes: source text for the
	// parse cache, estimated retained size for the eval cache.
	Bytes int64
	// CoalescedWaits counts requests that blocked on another request's
	// in-flight computation of the same artifact or evaluation instead
	// of computing a duplicate (the singleflight payoff).
	CoalescedWaits int64
	// Warmed counts entries preloaded from a warm-restart snapshot.
	Warmed int64
	// WarmHits counts hits served by a snapshot-preloaded entry — work
	// a cold-started process would have had to redo.
	WarmHits int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic. Skips
// are excluded: an uncacheable evaluation is not a cache miss, it was
// never a candidate. Stats() snapshots the counters under the cache's
// lock, so the ratio is internally consistent even while concurrent
// requests keep hitting the cache.
func (s CacheStats) HitRate() float64 {
	return hitRate(s.Hits, s.Misses)
}

// LangCacheStats is the per-language slice of a cache's traffic,
// reported by LangStats so serving frontends can attribute hit rates
// to frontends without conflating mixed-language traffic.
type LangCacheStats struct {
	// Hits / Misses / Skips count this language's requests only.
	Hits, Misses, Skips int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s LangCacheStats) HitRate() float64 {
	return hitRate(s.Hits, s.Misses)
}

func (s *LangCacheStats) add(d LangCacheStats) {
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.Skips += d.Skips
}

func hitRate(hits, misses int64) float64 {
	if total := hits + misses; total > 0 {
		return float64(hits) / float64(total)
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

	// elem is the entry's node in the cache's LRU list (guarded by
	// Cache.mu, not e.mu).
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

// Cache is a bounded, thread-safe memoization of tokenize/parse results
// keyed by (language, text), so the same bytes cached for one language
// are invisible to another. One Cache serves one deobfuscation run, or
// — in batch and server mode — is shared by all workers so identical
// layers across scripts parse once per language.
//
// One mutex guards the index, the LRU list and the counters; it is
// held only for map and list updates, never while an artifact is
// computed. Artifact computation is singleflight-coalesced per entry;
// see the package comment.
type Cache struct {
	mu      sync.Mutex
	entries map[key]*cacheEntry
	lru     *lru[*cacheEntry]

	coalescedWaits atomic.Int64
	warmed         atomic.Int64
	warmHits       atomic.Int64
}

// NewCache returns a Cache bounded by maxEntries texts and maxBytes of
// cached source, both across the whole cache. Non-positive arguments
// select the defaults.
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	c := &Cache{entries: make(map[key]*cacheEntry)}
	c.lru = newLRU(maxEntries, maxBytes, func(victim *cacheEntry) {
		delete(c.entries, key{victim.lang, victim.text})
	})
	return c
}

// lookup returns the entry for (lang, text), creating (and bounding) it
// as needed, and bumps it to most-recently-used. A nil return means the
// text is too large to cache.
func (c *Cache) lookup(lang, text string) *cacheEntry {
	if len(text) > maxCacheableText {
		return nil
	}
	k := key{lang, text}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[k]; e != nil {
		c.lru.touch(e.elem)
		return e
	}
	e := &cacheEntry{lang: lang, text: text}
	c.entries[k] = e
	e.elem = c.lru.push(e, int64(len(text)))
	return e
}

// record folds a hit/miss observation into the global and
// per-language counters.
func (c *Cache) record(lang string, hit bool) {
	var d LangCacheStats
	if hit {
		d.Hits = 1
	} else {
		d.Misses = 1
	}
	c.mu.Lock()
	c.lru.count(lang, d)
	c.mu.Unlock()
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
	e := c.lookup(lang, src)
	if e == nil {
		toks, err := l.Tokenize(src)
		c.record(lang, false)
		return toks, err, false
	}
	toks, err, hit, warm := e.artifact(&e.tok,
		func() (any, error) { return l.Tokenize(e.text) },
		func() { c.coalescedWaits.Add(1) })
	c.record(lang, hit)
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
	e := c.lookup(lang, src)
	if e == nil {
		sb, err := l.Parse(src)
		c.record(lang, false)
		return sb, err, false
	}
	sb, err, hit, warm := e.artifact(&e.ast,
		func() (any, error) { return l.Parse(e.text) },
		func() { c.coalescedWaits.Add(1) })
	c.record(lang, hit)
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
	e := c.lookup(l.Name(), text)
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
	e := c.lookup(l.Name(), text)
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

// SnapshotTexts returns every cached (language, text) pair, least
// recently used first, for warm-restart persistence. Re-inserting in
// the returned order reproduces the LRU recency order.
func (c *Cache) SnapshotTexts() []SnapshotEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SnapshotEntry, 0, len(c.entries))
	c.lru.oldestFirst(func(e *cacheEntry) {
		out = append(out, SnapshotEntry{Lang: e.lang, Text: e.text})
	})
	return out
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	st := c.lru.stats()
	c.mu.Unlock()
	st.CoalescedWaits, st.Warmed, st.WarmHits = c.coalescedWaits.Load(), c.warmed.Load(), c.warmHits.Load()
	return st
}

// LangStats snapshots the per-language hit/miss counters.
func (c *Cache) LangStats() map[string]LangCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.langStats()
}

// Entries reports the number of distinct cached (language, text) pairs.
func (c *Cache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
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
