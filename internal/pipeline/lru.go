package pipeline

import "container/list"

// key names one cached text: the language namespace plus the exact
// bytes. The parse cache maps it to one entry, the eval cache to its
// chain of binding sets, and eval flights coalesce on it.
type key struct {
	lang string
	text string
}

// lruNode is one element of an lru's recency list: the owner's entry
// and the bytes it was charged.
type lruNode[E any] struct {
	entry E
	size  int64
}

// lru is the bounded least-recently-used bookkeeping both caches keep
// under their one mutex: the recency list, the byte total against the
// entry and byte bounds, the eviction counter, and the hit, miss and
// skip counters CacheStats reports, whole and per language. It holds
// no lock of its own.
type lru[E any] struct {
	order      list.List // front = most recently used
	maxEntries int
	maxBytes   int64
	bytes      int64
	evictions  int64
	// drop unindexes an evicted entry from its owner's map.
	drop func(E)

	traffic LangCacheStats
	perLang map[string]*LangCacheStats
}

func newLRU[E any](maxEntries int, maxBytes int64, drop func(E)) *lru[E] {
	return &lru[E]{maxEntries: maxEntries, maxBytes: maxBytes, drop: drop, perLang: make(map[string]*LangCacheStats)}
}

// push adds e as the most recently used entry, charged size bytes, and
// then evicts from the least recently used end until both bounds hold.
// The newest entry is never evicted, so a lone entry over the byte
// bound still caches.
func (l *lru[E]) push(e E, size int64) *list.Element {
	el := l.order.PushFront(lruNode[E]{entry: e, size: size})
	l.bytes += size
	for (l.order.Len() > l.maxEntries || l.bytes > l.maxBytes) && l.order.Len() > 1 {
		victim := l.order.Remove(l.order.Back()).(lruNode[E])
		l.bytes -= victim.size
		l.evictions++
		l.drop(victim.entry)
	}
	return el
}

// touch marks el as the most recently used entry.
func (l *lru[E]) touch(el *list.Element) { l.order.MoveToFront(el) }

// oldestFirst calls f on every entry from least to most recently used.
func (l *lru[E]) oldestFirst(f func(E)) {
	for el := l.order.Back(); el != nil; el = el.Prev() {
		f(el.Value.(lruNode[E]).entry)
	}
}

// count adds one language's observations to the whole-cache and
// per-language counters.
func (l *lru[E]) count(lang string, d LangCacheStats) {
	ls := l.perLang[lang]
	if ls == nil {
		ls = &LangCacheStats{}
		l.perLang[lang] = ls
	}
	ls.add(d)
	l.traffic.add(d)
}

// stats reports the counters the lock guards; the caller adds the
// atomic ones.
func (l *lru[E]) stats() CacheStats {
	return CacheStats{
		Hits:      l.traffic.Hits,
		Misses:    l.traffic.Misses,
		Skips:     l.traffic.Skips,
		Evictions: l.evictions,
		Entries:   l.order.Len(),
		Bytes:     l.bytes,
	}
}

// langStats copies the per-language counters.
func (l *lru[E]) langStats() map[string]LangCacheStats {
	out := make(map[string]LangCacheStats, len(l.perLang))
	for lang, ls := range l.perLang {
		out[lang] = *ls
	}
	return out
}
