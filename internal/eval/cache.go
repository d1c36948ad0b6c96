package eval

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"time"

	"picola/internal/cover"
	"picola/internal/ctxutil"
	"picola/internal/face"
	"picola/internal/obs"
)

// Cache metrics: lookups that hit, lookups that computed and memoized,
// and lookups that bypassed the memo (a code space above memoMaxNV, or a
// non-injective encoding whose function a bitset key cannot
// canonicalize). The hit-rate gauge is exported in whole percent for
// -metrics snapshots. The lookup histogram records the caller-visible
// latency of the memoizable espresso requests the map could not answer —
// certificate checks plus any minimization they had to run. Map hits are
// deliberately untimed: the hot path runs millions of times per corpus
// sweep and two wall-clock reads per hit would cost more than the lookup
// itself. Exact requests are untimed here too: exact.Counter.Count times
// each exact count once, and a certificate answer costs less than the
// clock.
var (
	mCacheHits   = obs.Default.Counter("eval.cache.hits")
	mCacheMisses = obs.Default.Counter("eval.cache.misses")
	mCacheBypass = obs.Default.Counter("eval.cache.bypass")
	mCacheEvict  = obs.Default.Counter("eval.cache.evictions")
	gCacheRate   = obs.Default.Gauge("eval.cache.hit_rate_pct")
	gCacheLen    = obs.Default.Gauge("eval.cache.entries")
	gCacheBytes  = obs.Default.Gauge("eval.cache.bytes")
	hCacheLookup = obs.Default.LatencyHistogram("eval.cache.lookup_ns")
)

const (
	// cacheMaxNV bounds the code length of a request the cache serves:
	// up to memoMaxNV it memoizes the count; up to cacheMaxNV it builds
	// the request's bitsets once, for the exact count and the don't-care
	// memo (two 2^nv-bit bitsets, 1 KiB at nv = 12). Wider spaces only
	// arise far beyond minimum-length problems and bypass the cache.
	cacheMaxNV = 12
	// cacheShards spreads the key space over independently locked maps so
	// concurrent minimizations rarely contend.
	cacheShards = 64
	// DefaultCacheBytes is the NewCache memory bound: generous enough
	// that no per-run workload evicts (the Table-I sweep stays well under
	// 1 MiB), small enough that a long-running daemon or corpus run can
	// never grow without limit.
	DefaultCacheBytes = 64 << 20
	// entryBytes is the accounted size of one entry: the canonical key
	// bytes plus a fixed bookkeeping overhead (the map slot, and the
	// eviction-ring slot once a shard has one). The accounting only has
	// to be honest about scale, not exact.
	entryBytes = memoKeyBytes + 64
	// dcMemoCap bounds the don't-care memo; a full memo recomputes
	// fresh covers instead of storing, affecting speed only.
	dcMemoCap = 256
)

// Cache is a sharded, concurrency-safe memo for constraint-function
// minimizations. The key is the canonical signature of the minimization
// input — the minimizer policy, the code length nv, the ON-set bitset
// (member codes) over the 2^nv code space, and the used-code bitset
// (whose complement is the don't-care set) — so the cached count is a
// pure function of the key and caching can never change an answer. A nil
// *Cache is valid and simply computes every request.
//
// The cache memoizes counts at nv ≤ memoMaxNV, the minimum code length
// of up to 64 symbols, where the key is three words (memoKey), hashed,
// compared and stored without building a string. A request above it is
// computed on every call, still through the satisfied certificate and
// the don't-care memo. A map value packs the count as an int32 beside
// the shard's insertion number.
//
// Memory is bounded: every entry is charged entryBytes against the
// cache's byte budget, and a full shard evicts its oldest entries first
// (FIFO in insertion order — the deterministic policy: given the same
// insertion sequence, the same entries are evicted). A shard builds its
// eviction ring from the insertion numbers when it first overflows, so a
// cache that never fills keeps no ring. Because a memoized value is a
// pure function of its key, eviction can only cost recomputation time,
// never change a result.
type Cache struct {
	shards [cacheShards]cacheShard
	// shardBudget is the per-shard byte budget (the cache-wide budget
	// split evenly; the FNV sharding spreads keys uniformly).
	shardBudget int64

	// Don't-care memo for the espresso path: the complement of the
	// used-code minterms, keyed by the [nv, used-bitset] sub-signature
	// (see keyBuf.dcKey). Shared read-only across minimizations —
	// espresso never mutates its DC input and never aliases result
	// storage to it.
	dcMu sync.RWMutex
	dcm  map[string]*cover.Cover
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[memoKey]slot
	// seq numbers the shard's insertions; the ring is built before it
	// could wrap.
	seq uint32
	// order is the eviction ring, nil until the shard first overflows
	// its budget: then it holds the live keys in insertion order;
	// order[head:] are live, order[:head] already evicted (the prefix is
	// compacted away once it outgrows the live tail).
	order []memoKey
	head  int
	bytes int64
}

// slot is one memoized count and the insertion number that orders it
// for eviction.
type slot struct {
	cubes int32
	seq   uint32
}

// NewCache returns an empty cache with the default memory bound.
func NewCache() *Cache { return NewCacheBytes(DefaultCacheBytes) }

// NewCacheBytes returns an empty cache bounded to roughly maxBytes of
// entry accounting (key bytes + fixed per-entry overhead). maxBytes < 1
// means the default bound. The bound affects speed only, never results.
func NewCacheBytes(maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = DefaultCacheBytes
	}
	c := &Cache{
		shardBudget: (maxBytes + cacheShards - 1) / cacheShards,
		dcm:         make(map[string]*cover.Cover),
	}
	for i := range c.shards {
		c.shards[i].m = make(map[memoKey]slot)
	}
	return c
}

// Len returns the number of memoized entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}

// Bytes returns the accounted size of the memoized entries.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += c.shards[i].bytes
		c.shards[i].mu.RUnlock()
	}
	return n
}

// getLocked returns the memoized count of k under the shard's read
// lock.
func (sh *cacheShard) getLocked(k memoKey) (slot, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.m[k]
	return v, ok
}

// insert memoizes k → cubes under the shard's byte budget, evicting the
// oldest entries first until the new one fits. It reports whether the
// key was inserted (false: already present, or one entry alone exceeds
// the whole budget) and how many entries were evicted to make room.
// Metrics are the caller's job — this runs inside the shard lock.
func (sh *cacheShard) insert(k memoKey, cubes int, budget int64) (inserted bool, evicted int) {
	if entryBytes > budget {
		return false, 0
	}
	if _, exists := sh.m[k]; exists {
		return false, 0
	}
	if sh.order == nil && (sh.bytes+entryBytes > budget || sh.seq == math.MaxUint32) {
		sh.buildRing()
	}
	for sh.bytes+entryBytes > budget && sh.head < len(sh.order) {
		delete(sh.m, sh.order[sh.head])
		sh.head++
		sh.bytes -= entryBytes
		evicted++
	}
	// Compact the evicted prefix once it dominates the slice so the ring
	// never grows proportionally to the eviction history.
	if sh.head > 32 && sh.head > len(sh.order)/2 {
		sh.order = append(sh.order[:0], sh.order[sh.head:]...)
		sh.head = 0
	}
	sh.m[k] = slot{cubes: int32(cubes), seq: sh.seq}
	sh.seq++
	if sh.order != nil {
		sh.order = append(sh.order, k)
	}
	sh.bytes += entryBytes
	return true, evicted
}

// buildRing lays the shard's live keys out in insertion order, the
// order FIFO eviction takes them in. From here on insert keeps the ring
// current, so the insertion numbers no longer matter.
func (sh *cacheShard) buildRing() {
	type numbered struct {
		seq uint32
		key memoKey
	}
	all := make([]numbered, 0, len(sh.m))
	//lint:ignore detrange collected keys are sorted by insertion number below
	for k, v := range sh.m {
		all = append(all, numbered{v.seq, k})
	}
	slices.SortFunc(all, func(a, b numbered) int { return cmp.Compare(a.seq, b.seq) })
	sh.order = make([]memoKey, len(all), len(all)+1)
	for i, n := range all {
		sh.order[i] = n.key
	}
	sh.head = 0
}

// insertLocked is insert under the shard lock.
func (sh *cacheShard) insertLocked(k memoKey, cubes int, budget int64) (inserted bool, evicted int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.insert(k, cubes, budget)
}

// ConstraintCubes returns the number of product terms a minimized
// sum-of-products implementation of the constraint needs under the
// encoding: the exact minimum up to exact.MaxInputs code bits, the
// espresso heuristic beyond. A satisfied constraint costs exactly one
// cube. A nil cache computes every count without memoizing it.
func (c *Cache) ConstraintCubes(e *face.Encoding, con face.Constraint) (int, error) {
	return c.constraintCubes(context.Background(), e, con, false)
}

// ConstraintCubesHeuristic is ConstraintCubes evaluated with the
// espresso heuristic regardless of size. The ENC baseline uses it: the
// published ENC is slow precisely because it runs full logic
// minimization inside its search loop, and that property is part of
// what Table I reproduces.
func (c *Cache) ConstraintCubesHeuristic(e *face.Encoding, con face.Constraint) (int, error) {
	return c.constraintCubes(context.Background(), e, con, true)
}

func (c *Cache) constraintCubes(ctx context.Context, e *face.Encoding, con face.Constraint, heuristic bool) (int, error) {
	if c == nil {
		return minimize(ctx, e, con, heuristic, nil, nil)
	}
	if err := ctxutil.Check(ctx, "eval.minimize"); err != nil {
		return 0, err
	}
	kb := keyPool.Get().(*keyBuf)
	defer keyPool.Put(kb)
	keyed := kb.cacheKey(e, con, heuristic)
	if !keyed || e.NV > memoMaxNV {
		// Computed on every call, never inserted.
		if satisfiedOne(e, con) {
			mWarmHits.Inc()
			return 1, nil
		}
		mCacheBypass.Inc()
		if !keyed {
			// From scratch: the exact path reports a code both ON and
			// OFF as an error.
			return minimize(ctx, e, con, heuristic, nil, nil)
		}
		return minimize(ctx, e, con, heuristic, c, kb)
	}
	k, _, err := c.memoized(ctx, e, con, heuristic, kb)
	return k, err
}

// answer is how memoized answered a request, and so how it answers a
// repeat of the key for as long as the shard keeps the entry.
type answer uint8

const (
	// answerComputed: minimized but not inserted (the key arrived
	// meanwhile, or one entry exceeds the shard budget), so a repeat
	// computes again.
	answerComputed answer = iota
	// answerCertified: the satisfied certificate answered, with one
	// cube; it answers a repeat too.
	answerCertified
	// answerMapped: the shard map held the count, or now holds the one
	// just minimized, so a repeat is a hit.
	answerMapped
)

// memoized answers a memoizable request whose key and bitsets kb holds
// (nv ≤ memoMaxNV): the shard map first, then the satisfied
// certificate, then the minimizer, whose count it inserts. It reports
// how it answered.
func (c *Cache) memoized(ctx context.Context, e *face.Encoding, con face.Constraint, heuristic bool, kb *keyBuf) (int, answer, error) {
	sh := &c.shards[kb.hash%cacheShards]
	if v, ok := sh.getLocked(kb.key); ok {
		// Hot path: corpus re-runs take this branch millions of times per
		// sweep, so it pays for nothing but the lookup — no wall clocks,
		// and the diagnostic hit-rate gauge refreshes on a sample.
		mCacheHits.Inc()
		if mCacheHits.Value()&1023 == 0 {
			updateRate()
		}
		return int(v.cubes), answerMapped, nil
	}
	if minimizerFor(heuristic, e.NV) == byEspresso {
		// An exact count is timed once, by exact.Counter.Count.
		defer observeSince(hCacheLookup, time.Now())
	}
	if satisfiedOne(e, con) {
		// Warm certificate: the member-code supercube contains no OFF
		// code, so the minimum cover is provably that single cube — the
		// count any minimizer policy returns (the ConstraintCubes
		// contract). Certified constraints are answered here, never
		// inserted, so they can only reach the map branch above through
		// an imported store that already vouched for the same count.
		mWarmHits.Inc()
		return 1, answerCertified, nil
	}
	k, err := minimize(ctx, e, con, heuristic, c, kb)
	if err != nil {
		return 0, answerComputed, err
	}
	mCacheMisses.Inc()
	updateRate()
	ok, evicted := sh.insertLocked(kb.key, k, c.shardBudget)
	if !ok {
		return k, answerComputed, nil
	}
	noteInsert(evicted)
	return k, answerMapped, nil
}

// observeSince records the time since t0 in h.
func observeSince(h *obs.Histogram, t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// noteInsert updates the size gauges and eviction counter after one
// successful shard insert that displaced evicted older entries. The
// gauges are diagnostic; approximate interleaving under contention is
// fine (the per-shard accounting itself is exact).
func noteInsert(evicted int) {
	gCacheLen.Add(int64(1 - evicted))
	gCacheBytes.Add(int64(1-evicted) * entryBytes)
	if evicted > 0 {
		mCacheEvict.Add(int64(evicted))
	}
}

// updateRate refreshes the hit-rate gauge from the counters. The value
// is diagnostic; approximate interleaving under contention is fine.
func updateRate() {
	h, m := mCacheHits.Value(), mCacheMisses.Value()
	if t := h + m; t > 0 {
		gCacheRate.Set(h * 100 / t)
	}
}
