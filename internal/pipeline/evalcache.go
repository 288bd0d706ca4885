package pipeline

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// EvalOps is the value-handling surface of a language frontend the
// evaluation cache needs: a namespace (the frontend name, so identical
// snippet bytes under different languages can never share an entry), a
// deep copier, and a retained-size estimator. The full
// frontend.Frontend interface satisfies EvalOps.
type EvalOps interface {
	// Name identifies the language; it namespaces every entry key.
	Name() string
	// CopyValue returns a deep, unaliased copy of v, or false to refuse
	// the value (reference types that cannot be safely shared).
	CopyValue(v any) (any, bool)
	// ValueSize estimates v's retained size in bytes.
	ValueSize(v any) int
}

// Evaluation-cache bounds. The eval cache is smaller than the parse
// cache because each entry retains output values in addition to the
// snippet text, and because only pure runs (a minority on hostile
// corpora) are cacheable at all.
const (
	// DefaultEvalMaxEntries bounds the number of cached (snippet,
	// binding-set) results.
	DefaultEvalMaxEntries = 2048
	// DefaultEvalMaxBytes bounds the total retained bytes (snippet text
	// + binding fingerprints + estimated value sizes).
	DefaultEvalMaxBytes = 8 << 20
	// maxCacheableSnippet is the largest snippet worth caching; larger
	// evaluations are rare and would evict the whole working set.
	maxCacheableSnippet = 1 << 20
	// maxEntriesPerSnippet bounds how many distinct binding-sets are
	// retained for one snippet text, so a snippet evaluated under
	// ever-changing bindings cannot grow an unbounded chain.
	maxEntriesPerSnippet = 8
)

// Binding is one (variable, value-fingerprint) pair of an evaluation's
// environment fingerprint: the exact preloaded variables the run read,
// with a collision-free textual fingerprint of each value at read time.
// Bindings are recorded sorted by name (the frontend's read-set order)
// so entry comparison is a single ordered walk.
type Binding struct {
	// Name is the normalized (lower-cased, scope-stripped) variable name.
	Name string
	// FP fingerprints the value: type tag plus exact rendered value.
	// For the scalar types the deobfuscator preloads (strings and
	// numbers) the rendering is injective, so equal fingerprints imply
	// equal values — a fingerprint match can never replay a wrong
	// result, unlike a truncated hash.
	FP string
}

// evalEntry is one cached pure evaluation: the recorded read-set and
// the deep-copied output values. Entries are immutable after insert;
// lookups copy the values out again so no caller ever aliases them.
type evalEntry struct {
	lang     string
	bindings []Binding
	values   []any
	bytes    int64 // retained-size share charged to the cache budget
	snippet  string
	// warm marks an entry preloaded from a warm-restart snapshot; hits
	// on it are counted separately as WarmHits.
	warm bool
	// elem is the entry's node in its shard's LRU list (guarded by the
	// shard lock).
	elem *list.Element
}

// EvalCacheStats is a point-in-time snapshot of eval-cache
// effectiveness.
type EvalCacheStats struct {
	// Hits counts lookups answered from memory (interpreter runs saved).
	Hits int64
	// Misses counts lookups that had to evaluate.
	Misses int64
	// Skips counts evaluations that completed but were not cacheable
	// (impure, oversized, or holding uncopyable values).
	Skips int64
	// Evictions counts entries dropped to stay within bounds.
	Evictions int64
	// Entries is the current number of cached results.
	Entries int
	// Bytes is the current estimated retained size.
	Bytes int64
	// Shards is the number of independent lock stripes.
	Shards int
	// CoalescedWaits counts evaluations that blocked on another run's
	// in-flight evaluation of the same snippet instead of racing a
	// duplicate through the interpreter.
	CoalescedWaits int64
	// Warmed counts entries preloaded from a warm-restart snapshot.
	Warmed int64
	// WarmHits counts hits served by snapshot-preloaded entries.
	WarmHits int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic. Skips
// are excluded: an uncacheable evaluation is not a cache miss, it was
// never a candidate.
func (s EvalCacheStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// LangEvalStats is the per-language slice of an eval cache's traffic.
type LangEvalStats struct {
	// Hits / Misses / Skips count this language's evaluations only.
	Hits, Misses, Skips int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s LangEvalStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// evalShard is one independent stripe of the eval cache: its own lock,
// buckets, LRU list, byte budget and counters.
type evalShard struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	buckets    map[uint64][]*evalEntry
	lru        *list.List // front = most recently used

	hits, misses, skips, evictions int64
	perLang                        map[string]*LangEvalStats
}

func newEvalShard(maxEntries int, maxBytes int64) *evalShard {
	return &evalShard{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		buckets:    make(map[uint64][]*evalEntry),
		lru:        list.New(),
		perLang:    make(map[string]*LangEvalStats),
	}
}

// evalFlightKey identifies one in-flight evaluation for coalescing.
// Coalescing is keyed on (language, snippet) alone — the environment
// fingerprint is only discovered *during* evaluation (the read-set is
// an output, not an input), so followers wait for the leader and then
// re-check the cache under their own visible bindings; a binding
// mismatch simply promotes the follower to the next leader.
type evalFlightKey struct {
	lang    string
	snippet string
}

// evalFlight is one in-flight evaluation; done is closed when the
// leader resolves (insert, skip or abort), after which followers
// re-lookup.
type evalFlight struct {
	done chan struct{}
}

// EvalCache memoizes the output values of pure, deterministic snippet
// evaluations, keyed by language plus exact snippet text plus the
// environment fingerprint (the sorted set of preloaded variables the
// run read and their values). It is the evaluation-phase sibling of
// the parse Cache: bounded (per-shard LRU over both an entry count and
// a byte budget), safe for concurrent batch workers, and observed
// through per-run EvalViews so trace attribution stays exact. Like the
// parse cache it is striped by content hash across power-of-two
// shards, and Acquire coalesces concurrent evaluations of the same
// (language, snippet) so a wave of identical scripts costs one
// interpreter run.
//
// The cache itself is value-agnostic: each view carries its
// frontend's EvalOps (deep copier + sizer) so the pipeline package
// needs no knowledge of interpreter value types, and an entry's values
// are always copied by the same language's copier that inserted them
// (keys are language-namespaced). Values are deep-copied on insert AND
// on every hit, so a splice that later mutates a returned slice can
// never corrupt the cache or another run.
type EvalCache struct {
	shards    []*evalShard
	shardMask uint64

	flightMu sync.Mutex
	flights  map[evalFlightKey]*evalFlight

	coalescedWaits atomic.Int64
	warmed         atomic.Int64
	warmHits       atomic.Int64
}

// NewEvalCache returns an EvalCache bounded by maxEntries results and
// maxBytes of retained data, striped across the default
// GOMAXPROCS-scaled shard count. Non-positive bounds select the
// defaults. Value copying and sizing are supplied per view
// (EvalCache.View), so one shared cache can serve several language
// frontends.
func NewEvalCache(maxEntries int, maxBytes int64) *EvalCache {
	return NewEvalCacheSharded(maxEntries, maxBytes, 0)
}

// NewEvalCacheSharded is NewEvalCache with an explicit shard count
// (same resolution rules as NewCacheSharded; 1 reproduces the
// historical single-mutex cache).
func NewEvalCacheSharded(maxEntries int, maxBytes int64, shards int) *EvalCache {
	if maxEntries <= 0 {
		maxEntries = DefaultEvalMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultEvalMaxBytes
	}
	n := shardCount(shards, maxEntries, maxBytes)
	c := &EvalCache{
		shards:    make([]*evalShard, n),
		shardMask: uint64(n - 1),
		flights:   make(map[evalFlightKey]*evalFlight),
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
		c.shards[i] = newEvalShard(perEntries, perBytes)
	}
	return c
}

// shard returns the stripe owning key.
func (c *EvalCache) shard(key uint64) *evalShard { return c.shards[key&c.shardMask] }

// statsShard returns the stripe that accumulates a language's
// view-level hit/miss/skip observations (stable per language; Stats
// and LangStats sum across shards, so placement is an implementation
// detail).
func (c *EvalCache) statsShard(lang string) *evalShard {
	return c.shards[hashKey(lang, "")&c.shardMask]
}

// ShardCount reports the number of lock stripes.
func (c *EvalCache) ShardCount() int { return len(c.shards) }

// lookup finds a cached result for (lang, snippet) whose recorded
// bindings all match the currently visible values, returning deep
// copies of the cached output values. warm reports a hit on a
// snapshot-preloaded entry.
func (c *EvalCache) lookup(ops EvalOps, snippet string, visible func(name string) (fp string, ok bool)) (out []any, warm, ok bool) {
	if len(snippet) > maxCacheableSnippet {
		return nil, false, false
	}
	lang := ops.Name()
	key := hashKey(lang, snippet)
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, e := range sh.buckets[key] {
		if e.lang != lang || e.snippet != snippet {
			continue
		}
		if !bindingsMatch(e.bindings, visible) {
			continue
		}
		out, copied := copyValues(ops, e.values)
		if !copied {
			// Cannot happen for values that passed insert's copier, but
			// degrade to a miss rather than trust it.
			continue
		}
		sh.lru.MoveToFront(e.elem)
		return out, e.warm, true
	}
	return nil, false, false
}

// bindingsMatch reports whether every recorded (name, fingerprint)
// pair is still visible with an identical fingerprint. The determinism
// argument: a pure run's output is a function of (snippet text,
// values of the variables it read). If all recorded reads resolve to
// the same values now, a re-evaluation would read exactly the same
// variables and produce exactly the same output — variables the run
// never read cannot influence it.
func bindingsMatch(bindings []Binding, visible func(string) (string, bool)) bool {
	for _, b := range bindings {
		fp, ok := visible(b.Name)
		if !ok || fp != b.FP {
			return false
		}
	}
	return true
}

// copyValues deep-copies a cached value slice through the view's ops.
func copyValues(ops EvalOps, values []any) ([]any, bool) {
	if values == nil {
		return nil, true
	}
	out := make([]any, len(values))
	for i, v := range values {
		cp, ok := ops.CopyValue(v)
		if !ok {
			return nil, false
		}
		out[i] = cp
	}
	return out, true
}

// insert stores a pure evaluation result. The values are deep-copied
// before retention; values the copier refuses make the whole result
// uncacheable (recorded as a skip).
func (c *EvalCache) insert(ops EvalOps, snippet string, bindings []Binding, values []any) bool {
	return c.insertEntry(ops, snippet, bindings, values, false)
}

func (c *EvalCache) insertEntry(ops EvalOps, snippet string, bindings []Binding, values []any, warm bool) bool {
	lang := ops.Name()
	if len(snippet) > maxCacheableSnippet {
		c.recordSkip(lang)
		return false
	}
	var size int64 = int64(len(lang)+len(snippet)) + 64
	for _, b := range bindings {
		size += int64(len(b.Name) + len(b.FP) + 32)
	}
	// Preserve nil-ness: a nil output slice must replay as nil, not as
	// an empty non-nil slice, so replays are indistinguishable from
	// the original evaluation.
	var stored []any
	if values != nil {
		stored = make([]any, len(values))
		for i, v := range values {
			cp, ok := ops.CopyValue(v)
			if !ok {
				c.recordSkip(lang)
				return false
			}
			stored[i] = cp
			size += int64(ops.ValueSize(v))
		}
	}
	key := hashKey(lang, snippet)
	e := &evalEntry{lang: lang, snippet: snippet, bindings: bindings, values: stored, bytes: size, warm: warm}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Dedup: a concurrent worker may have inserted the same result
	// already; cap per-snippet chains so one text cannot monopolize.
	same := 0
	for _, old := range sh.buckets[key] {
		if old.lang != lang || old.snippet != snippet {
			continue
		}
		same++
		if equalBindings(old.bindings, bindings) {
			return true // already cached
		}
	}
	if same >= maxEntriesPerSnippet {
		sh.skips++
		sh.langStatsLocked(lang).Skips++
		return false
	}
	sh.buckets[key] = append(sh.buckets[key], e)
	e.elem = sh.lru.PushFront(e)
	sh.bytes += size
	for (sh.lru.Len() > sh.maxEntries || sh.bytes > sh.maxBytes) && sh.lru.Len() > 1 {
		sh.evictOldestLocked()
	}
	return true
}

func equalBindings(a, b []Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evictOldestLocked drops the least-recently-used entry. Callers hold
// sh.mu.
func (sh *evalShard) evictOldestLocked() {
	back := sh.lru.Back()
	if back == nil {
		return
	}
	victim := sh.lru.Remove(back).(*evalEntry)
	key := hashKey(victim.lang, victim.snippet)
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
	sh.bytes -= victim.bytes
	sh.evictions++
}

// langStatsLocked returns the per-language counter, creating it as
// needed. Callers hold sh.mu.
func (sh *evalShard) langStatsLocked(lang string) *LangEvalStats {
	ls := sh.perLang[lang]
	if ls == nil {
		ls = &LangEvalStats{}
		sh.perLang[lang] = ls
	}
	return ls
}

func (c *EvalCache) recordSkip(lang string) {
	sh := c.statsShard(lang)
	sh.mu.Lock()
	sh.skips++
	sh.langStatsLocked(lang).Skips++
	sh.mu.Unlock()
}

// PreloadEval inserts a snapshot-derived zero-binding result, flagged
// warm. Unlike Insert it records neither a hit nor a miss (a restart
// is not traffic). Only environment-independent results are ever
// preloaded: a snapshot carries no binding environment, so results
// whose replay depends on one cannot be safely re-derived at load.
func (c *EvalCache) PreloadEval(ops EvalOps, snippet string, values []any) bool {
	if c == nil || ops == nil {
		return false
	}
	if !c.insertEntry(ops, snippet, nil, values, true) {
		return false
	}
	c.warmed.Add(1)
	return true
}

// SnapshotSnippets returns the (language, snippet) pairs of every
// cached zero-binding result, oldest first per shard, for warm-restart
// persistence. Entries with binding fingerprints are excluded: their
// replay depends on an environment the snapshot does not carry.
func (c *EvalCache) SnapshotSnippets() []SnapshotEntry {
	var out []SnapshotEntry
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*evalEntry)
			if len(e.bindings) == 0 {
				out = append(out, SnapshotEntry{Lang: e.lang, Text: e.snippet})
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Stats snapshots the eval-cache counters, summed across shards.
func (c *EvalCache) Stats() EvalCacheStats {
	st := EvalCacheStats{
		Shards:         len(c.shards),
		CoalescedWaits: c.coalescedWaits.Load(),
		Warmed:         c.warmed.Load(),
		WarmHits:       c.warmHits.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Skips += sh.skips
		st.Evictions += sh.evictions
		st.Entries += sh.lru.Len()
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// ShardOccupancy reports the current entry count of every shard.
func (c *EvalCache) ShardOccupancy() []int {
	out := make([]int, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		out[i] = sh.lru.Len()
		sh.mu.Unlock()
	}
	return out
}

// LangStats snapshots the per-language hit/miss/skip counters, summed
// across shards.
func (c *EvalCache) LangStats() map[string]LangEvalStats {
	out := make(map[string]LangEvalStats)
	for _, sh := range c.shards {
		sh.mu.Lock()
		for lang, ls := range sh.perLang {
			agg := out[lang]
			agg.Hits += ls.Hits
			agg.Misses += ls.Misses
			agg.Skips += ls.Skips
			out[lang] = agg
		}
		sh.mu.Unlock()
	}
	return out
}

// View returns a per-run accounting window onto the shared cache bound
// to one frontend's value operations. A nil receiver yields a nil
// view, and every EvalView method accepts a nil receiver as "caching
// disabled" — callers need no branching.
func (c *EvalCache) View(ops EvalOps) *EvalView {
	if c == nil {
		return nil
	}
	return &EvalView{c: c, ops: ops}
}

// EvalView is a single-run window onto a shared EvalCache, counting
// this run's hits/misses/skips for exact per-run trace attribution.
// Not safe for concurrent use; each run owns its own.
type EvalView struct {
	c   *EvalCache
	ops EvalOps
	// Hits, Misses and Skips count this view's requests only.
	Hits, Misses, Skips int64
}

// Enabled reports whether a cache backs this view.
func (v *EvalView) Enabled() bool { return v != nil && v.c != nil && v.ops != nil }

// Cache returns the underlying shared cache (nil when disabled).
func (v *EvalView) Cache() *EvalCache {
	if v == nil {
		return nil
	}
	return v.c
}

func (v *EvalView) recordHit(warm bool) {
	v.Hits++
	lang := v.ops.Name()
	sh := v.c.statsShard(lang)
	sh.mu.Lock()
	sh.hits++
	sh.langStatsLocked(lang).Hits++
	sh.mu.Unlock()
	if warm {
		v.c.warmHits.Add(1)
	}
}

// Lookup searches for a cached result of snippet under the currently
// visible bindings. visible maps a normalized variable name to its
// value fingerprint. On a hit the returned values are fresh deep
// copies owned by the caller. A miss is NOT counted here — the caller
// reports the evaluation's outcome through Insert or Skip so that
// uncacheable runs are attributed as skips, not misses.
func (v *EvalView) Lookup(snippet string, visible func(name string) (fp string, ok bool)) ([]any, bool) {
	if !v.Enabled() {
		return nil, false
	}
	out, warm, ok := v.c.lookup(v.ops, snippet, visible)
	if ok {
		v.recordHit(warm)
	}
	return out, ok
}

// Acquire is Lookup plus singleflight coalescing: on a miss it either
// claims leadership of the (language, snippet) evaluation — returning
// a non-nil ticket the caller MUST resolve via Insert, Skip or Abort —
// or blocks until the current leader resolves and re-checks the cache.
//
// Followers never inherit the leader's outcome. When a leader aborts,
// skips, or is canceled by its own envelope, its flight resolves
// without publishing and each waiter re-looks-up: a binding mismatch
// or absent entry simply promotes the next waiter to leader, so one
// request's deadline/cancel/panic can never surface as another
// request's taxonomy error. If ctx is done while waiting, Acquire
// stops waiting and returns a non-coalescing ticket (flight-less):
// the caller evaluates under its own envelope and any cancellation
// error is attributed to itself — a queued request that wins admission
// after its leader was canceled retries the work, it does not inherit
// ErrCanceled.
//
// On a disabled view Acquire returns (nil, false, nil); the nil ticket
// is safe to resolve.
func (v *EvalView) Acquire(ctx context.Context, snippet string, visible func(name string) (fp string, ok bool)) ([]any, bool, *EvalTicket) {
	if !v.Enabled() {
		return nil, false, nil
	}
	if len(snippet) > maxCacheableSnippet {
		// Oversize snippets are never cached, so coalescing would hold
		// a flight nothing can resolve into a hit; evaluate directly.
		return nil, false, &EvalTicket{v: v, snippet: snippet}
	}
	key := evalFlightKey{lang: v.ops.Name(), snippet: snippet}
	for {
		if out, warm, ok := v.c.lookup(v.ops, snippet, visible); ok {
			v.recordHit(warm)
			return out, true, nil
		}
		v.c.flightMu.Lock()
		f := v.c.flights[key]
		if f == nil {
			f = &evalFlight{done: make(chan struct{})}
			v.c.flights[key] = f
			v.c.flightMu.Unlock()
			return nil, false, &EvalTicket{v: v, snippet: snippet, key: key, flight: f}
		}
		v.c.flightMu.Unlock()
		v.c.coalescedWaits.Add(1)
		select {
		case <-f.done:
			// Leader resolved; loop to re-check the cache (or claim the
			// next leadership on a mismatch).
		case <-ctx.Done():
			return nil, false, &EvalTicket{v: v, snippet: snippet}
		}
	}
}

// Insert stores a pure evaluation result under (snippet, bindings) and
// counts the evaluation as a miss (the work happened; future lookups
// may hit).
func (v *EvalView) Insert(snippet string, bindings []Binding, values []any) {
	if !v.Enabled() {
		return
	}
	v.Misses++
	lang := v.ops.Name()
	sh := v.c.statsShard(lang)
	sh.mu.Lock()
	sh.misses++
	sh.langStatsLocked(lang).Misses++
	sh.mu.Unlock()
	v.c.insert(v.ops, snippet, bindings, values)
}

// Skip records an evaluation whose result must not be cached (impure,
// failed, or uncacheable values).
func (v *EvalView) Skip() {
	if !v.Enabled() {
		return
	}
	v.Skips++
	lang := v.ops.Name()
	sh := v.c.statsShard(lang)
	sh.mu.Lock()
	sh.skips++
	sh.langStatsLocked(lang).Skips++
	sh.mu.Unlock()
}

// EvalTicket is the resolution handle Acquire hands a leader (or a
// flight-less self-evaluator). Exactly one of Insert, Skip or Abort
// must eventually be called; all three are idempotent and nil-safe,
// so `defer t.Abort()` is a correct backstop after explicit
// resolution. Insert publishes to the cache BEFORE releasing waiters,
// so a follower's re-lookup after the flight resolves observes the
// new entry.
type EvalTicket struct {
	v       *EvalView
	snippet string
	key     evalFlightKey
	flight  *evalFlight
	done    bool
}

// Enabled reports whether a live view backs this ticket.
func (t *EvalTicket) Enabled() bool { return t != nil && t.v.Enabled() }

// resolve closes the ticket's flight (if any), releasing waiters.
func (t *EvalTicket) resolve() {
	if t == nil || t.done {
		return
	}
	t.done = true
	if t.flight == nil {
		return
	}
	t.v.c.flightMu.Lock()
	if t.v.c.flights[t.key] == t.flight {
		delete(t.v.c.flights, t.key)
	}
	t.v.c.flightMu.Unlock()
	close(t.flight.done)
}

// Insert stores the evaluation result (counted as a miss) and releases
// any coalesced waiters, who will re-lookup and hit.
func (t *EvalTicket) Insert(bindings []Binding, values []any) {
	if t == nil || t.done {
		return
	}
	t.v.Insert(t.snippet, bindings, values)
	t.resolve()
}

// Skip records an uncacheable evaluation and releases any coalesced
// waiters, who will retry as new leaders.
func (t *EvalTicket) Skip() {
	if t == nil || t.done {
		return
	}
	t.v.Skip()
	t.resolve()
}

// Abort releases waiters without recording anything — the path for a
// leader whose evaluation never completed (panic unwinding, early
// return). Waiters retry as new leaders rather than inheriting the
// aborted run's failure.
func (t *EvalTicket) Abort() { t.resolve() }
