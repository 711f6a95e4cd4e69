package server

import (
	"container/list"
	"strings"

	"repro/internal/plan"
)

// The compiled-plan cache amortizes compilation across parameterized
// re-runs: a query shape compiles once per pooled session and every
// repeat skips the parser, desugarer, and optimizer. Plans are safe to
// re-execute because executors resolve arrays by NAME through the
// session catalog at run time — new data registered under the same
// name (and shape) flows through a cached plan untouched. What a plan
// does bake in are the builder dimensions and folded scalar constants,
// so registrations that change shapes or scalars clear the cache.
//
// Keying is two-level, both levels normalizing away formatting:
//
//	alias  aliasKey(src)       whitespace-collapsed raw source; a hit
//	                           here costs one map lookup and skips even
//	                           the parser
//	canon  desugared rendering the same canonical key plan.Compile
//	                           renders; reached by a cheap parse+desugar,
//	                           a hit skips analysis and planning
//
// Two sources that differ only in whitespace (or sugar the desugarer
// erases) share one canonical entry; structurally different queries
// render differently and can never collide.
type planCache struct {
	cap     int
	alias   map[string]string        // aliasKey(src) -> canonical key
	entries map[string]*list.Element // canonical key -> lru element
	lru     *list.List               // front = most recently used *planEntry
}

type planEntry struct {
	canon   string
	plan    *plan.Compiled
	aliases []string
}

// maxAliases bounds formatting variants tracked per entry so an
// adversarial client cannot grow the alias map without bound; variants
// past the cap still hit through the canonical key.
const maxAliases = 32

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 64
	}
	return &planCache{
		cap:     capacity,
		alias:   make(map[string]string),
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// CanonicalKey computes the level-2 cache key of a query source. It
// forwards to plan.CanonicalKey, the one implementation; the name stays
// exported here because the benchmark times it (server.canonical_key_us).
func CanonicalKey(src string) (string, error) { return plan.CanonicalKey(src) }

// aliasKey is the level-1 key: whitespace runs collapse, so reformatted
// repeats of the same source share it.
func aliasKey(src string) string { return strings.Join(strings.Fields(src), " ") }

// lookupAlias is the no-parse fast path.
func (pc *planCache) lookupAlias(src string) (*plan.Compiled, bool) {
	canon, ok := pc.alias[aliasKey(src)]
	if !ok {
		return nil, false
	}
	e := pc.entries[canon]
	pc.lru.MoveToFront(e)
	return e.Value.(*planEntry).plan, true
}

// lookupCanon finds an entry by canonical key and records src as a new
// formatting alias of it.
func (pc *planCache) lookupCanon(canon, src string) (*plan.Compiled, bool) {
	e, ok := pc.entries[canon]
	if !ok {
		return nil, false
	}
	pc.lru.MoveToFront(e)
	pc.addAlias(e.Value.(*planEntry), src)
	return e.Value.(*planEntry).plan, true
}

// insert caches a freshly compiled plan, evicting the LRU entry past
// capacity.
func (pc *planCache) insert(canon string, q *plan.Compiled, src string) {
	if e, ok := pc.entries[canon]; ok {
		// Raced in by a canon lookup that missed? Can't happen on a
		// single-holder cache, but stay idempotent.
		e.Value.(*planEntry).plan = q
		pc.lru.MoveToFront(e)
		return
	}
	ent := &planEntry{canon: canon, plan: q}
	pc.addAlias(ent, src)
	pc.entries[canon] = pc.lru.PushFront(ent)
	obsPlanEntries.Add(1)
	for pc.lru.Len() > pc.cap {
		pc.evictOldest()
	}
}

func (pc *planCache) addAlias(ent *planEntry, src string) {
	k := aliasKey(src)
	if len(ent.aliases) >= maxAliases {
		return
	}
	if _, dup := pc.alias[k]; dup {
		return
	}
	pc.alias[k] = ent.canon
	ent.aliases = append(ent.aliases, k)
}

func (pc *planCache) evictOldest() {
	e := pc.lru.Back()
	if e == nil {
		return
	}
	ent := e.Value.(*planEntry)
	pc.lru.Remove(e)
	delete(pc.entries, ent.canon)
	for _, a := range ent.aliases {
		delete(pc.alias, a)
	}
	obsPlanEvictions.Inc()
	obsPlanEntries.Add(-1)
}

// clear drops every cached plan (data shapes or scalars changed).
func (pc *planCache) clear() {
	obsPlanEntries.Add(-int64(pc.lru.Len()))
	pc.alias = make(map[string]string)
	pc.entries = make(map[string]*list.Element)
	pc.lru.Init()
}

func (pc *planCache) len() int { return pc.lru.Len() }
