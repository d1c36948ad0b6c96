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

// Cache metrics: lookups that hit, lookups that computed, and lookups
// that bypassed the cache (code space too wide, or a non-injective
// encoding whose function a bitset key cannot canonicalize). The
// hit-rate gauge is exported in whole percent for -metrics snapshots.
// The lookup histogram records the caller-visible latency of requests
// the map could not answer — certificate checks plus any minimization
// they had to run. Map hits are deliberately untimed: the hot path runs
// millions of times per corpus sweep and two wall-clock reads per hit
// would cost more than the lookup itself.
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
	// cacheMaxNV bounds the code length the cache accepts: the key holds
	// two 2^nv-bit bitsets, 1 KiB at nv = 12. Wider spaces only arise far
	// beyond minimum-length problems and bypass the cache.
	cacheMaxNV = 12
	// cacheShards spreads the key space over independently locked maps so
	// concurrent minimizations rarely contend.
	cacheShards = 64
	// DefaultCacheBytes is the NewCache memory bound: generous enough
	// that no per-run workload evicts (the Table-I sweep stays well under
	// 1 MiB), small enough that a long-running daemon or corpus run can
	// never grow without limit.
	DefaultCacheBytes = 64 << 20
	// entryBytesOverhead approximates the per-entry bookkeeping cost
	// beyond the canonical key bytes themselves: the map slot, the
	// eviction-ring slot once a shard has one, and a wide key's string
	// header. The accounting only has to be honest about scale, not
	// exact.
	entryBytesOverhead = 64
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
// Keys come in two widths. At nv ≤ 6 — one word per bitset, the
// minimum code length of up to 64 symbols — the key is narrow: three
// words, hashed, compared and stored without building a string.
// Wider code spaces (nv 7–12) keep their canonical bytes as a string.
// A map value packs the count as an int32 beside the shard's insertion
// number.
//
// Memory is bounded: every entry is charged its canonical key bytes plus
// a fixed bookkeeping overhead against the cache's byte budget, and a
// full shard evicts its oldest entries first (FIFO in insertion order —
// the deterministic policy: given the same insertion sequence, the same
// entries are evicted). A shard builds its eviction ring from the
// insertion numbers when it first overflows, so a cache that never fills
// keeps no ring. Because a memoized value is a pure function of its key,
// eviction can only cost recomputation time, never change a result.
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
	mu     sync.RWMutex
	narrow map[narrowKey]slot
	wide   map[string]slot
	// seq numbers the shard's insertions; the ring is built before it
	// could wrap.
	seq uint32
	// order is the eviction ring, nil until the shard first overflows
	// its budget: then it holds the live keys in insertion order;
	// order[head:] are live, order[:head] already evicted (the prefix is
	// compacted away once it outgrows the live tail).
	order []ringKey
	head  int
	bytes int64
}

// slot is one memoized count and the insertion number that orders it
// for eviction.
type slot struct {
	cubes int32
	seq   uint32
}

// ringKey is one key of the eviction ring: narrow, or wide when wide is
// non-empty.
type ringKey struct {
	narrow narrowKey
	wide   string
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
		c.shards[i].narrow = make(map[narrowKey]slot)
		c.shards[i].wide = make(map[string]slot)
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
		n += len(c.shards[i].narrow) + len(c.shards[i].wide)
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

// get returns the memoized count of kb's key. The caller holds the lock.
func (sh *cacheShard) get(kb *keyBuf) (slot, bool) {
	if kb.wide() {
		v, ok := sh.wide[string(kb.key)]
		return v, ok
	}
	v, ok := sh.narrow[kb.nk]
	return v, ok
}

// getLocked is get under the shard's read lock.
func (sh *cacheShard) getLocked(kb *keyBuf) (slot, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.get(kb)
}

// insert memoizes kb's key → cubes under the shard's byte budget,
// evicting the oldest entries first until the new one fits. It reports
// whether the key was inserted (false: already present, or the entry
// alone exceeds the whole budget), how many entries were evicted to make
// room, and the accounted bytes those evictions freed. Metrics are the
// caller's job — this runs inside the shard lock.
func (sh *cacheShard) insert(kb *keyBuf, cubes int, budget int64) (inserted bool, evicted int, freed int64) {
	size := kb.size()
	if size > budget {
		return false, 0, 0
	}
	if _, exists := sh.get(kb); exists {
		return false, 0, 0
	}
	if sh.order == nil && (sh.bytes+size > budget || sh.seq == math.MaxUint32) {
		sh.buildRing()
	}
	for sh.bytes+size > budget && sh.head < len(sh.order) {
		old := sh.order[sh.head]
		sh.order[sh.head] = ringKey{}
		sh.head++
		n := int64(narrowKeyBytes)
		if old.wide != "" {
			delete(sh.wide, old.wide)
			n = int64(len(old.wide))
		} else {
			delete(sh.narrow, old.narrow)
		}
		sh.bytes -= n + entryBytesOverhead
		freed += n + entryBytesOverhead
		evicted++
	}
	// Compact the evicted prefix once it dominates the slice so the ring
	// never grows proportionally to the eviction history.
	if sh.head > 32 && sh.head > len(sh.order)/2 {
		sh.order = append(sh.order[:0], sh.order[sh.head:]...)
		sh.head = 0
	}
	v := slot{cubes: int32(cubes), seq: sh.seq}
	sh.seq++
	var rk ringKey
	if kb.wide() {
		rk.wide = string(kb.key)
		sh.wide[rk.wide] = v
	} else {
		rk.narrow = kb.nk
		sh.narrow[kb.nk] = v
	}
	if sh.order != nil {
		sh.order = append(sh.order, rk)
	}
	sh.bytes += size
	return true, evicted, freed
}

// buildRing lays the shard's live keys out in insertion order, the
// order FIFO eviction takes them in. From here on insert keeps the ring
// current, so the insertion numbers no longer matter.
func (sh *cacheShard) buildRing() {
	type numbered struct {
		seq uint32
		key ringKey
	}
	all := make([]numbered, 0, len(sh.narrow)+len(sh.wide))
	//lint:ignore detrange collected keys are sorted by insertion number below
	for k, v := range sh.narrow {
		all = append(all, numbered{v.seq, ringKey{narrow: k}})
	}
	//lint:ignore detrange collected keys are sorted by insertion number below
	for k, v := range sh.wide {
		all = append(all, numbered{v.seq, ringKey{wide: k}})
	}
	slices.SortFunc(all, func(a, b numbered) int { return cmp.Compare(a.seq, b.seq) })
	sh.order = make([]ringKey, len(all), len(all)+1)
	for i, n := range all {
		sh.order[i] = n.key
	}
	sh.head = 0
}

// insertLocked is insert under the shard lock.
func (sh *cacheShard) insertLocked(kb *keyBuf, cubes int, budget int64) (inserted bool, evicted int, freed int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.insert(kb, cubes, budget)
}

// ConstraintCubes is the memoized ConstraintCubes: exact minimization
// when the code space allows it, the espresso heuristic beyond.
func (c *Cache) ConstraintCubes(e *face.Encoding, con face.Constraint) (int, error) {
	return c.constraintCubes(context.Background(), e, con, false)
}

// ConstraintCubesContext is ConstraintCubes under a run context: the
// deadline is checked at the minimization boundary and a cancelled call
// returns a wrapped context error instead of a count.
func (c *Cache) ConstraintCubesContext(ctx context.Context, e *face.Encoding, con face.Constraint) (int, error) {
	return c.constraintCubes(ctx, e, con, false)
}

// ConstraintCubesHeuristic is the memoized ConstraintCubesHeuristic
// (espresso regardless of size — the ENC baseline's evaluator).
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
	if !kb.cacheKey(e, con, heuristic) {
		if satisfiedOne(e, con) {
			mWarmHits.Inc()
			return 1, nil
		}
		mCacheBypass.Inc()
		return minimize(ctx, e, con, heuristic, nil, nil)
	}
	sh := &c.shards[kb.hash%cacheShards]
	v, hit := sh.getLocked(kb)
	if hit {
		// Hot path: corpus re-runs take this branch millions of times per
		// sweep, so it pays for nothing but the lookup — no wall clocks,
		// and the diagnostic hit-rate gauge refreshes on a sample.
		mCacheHits.Inc()
		if mCacheHits.Value()&1023 == 0 {
			updateRate()
		}
		return int(v.cubes), nil
	}
	t0 := time.Now()
	defer func() { hCacheLookup.Observe(int64(time.Since(t0))) }()
	if satisfiedOne(e, con) {
		// Warm certificate: the member-code supercube contains no OFF
		// code, so the minimum cover is provably that single cube — the
		// count any minimizer policy returns (the ConstraintCubes
		// contract). Certified constraints are answered here, never
		// inserted, so they can only reach the map branch above through
		// an imported store that already vouched for the same count.
		mWarmHits.Inc()
		return 1, nil
	}
	k, err := minimize(ctx, e, con, heuristic, c, kb)
	if err != nil {
		return 0, err
	}
	mCacheMisses.Inc()
	updateRate()
	inserted, evicted, freed := sh.insertLocked(kb, k, c.shardBudget)
	if inserted {
		noteInsert(kb.size(), evicted, freed)
	}
	return k, nil
}

// noteInsert updates the size gauges and eviction counter after one
// successful shard insert of added accounted bytes that displaced
// evicted older entries freeing freed bytes. The gauges are diagnostic;
// approximate interleaving under contention is fine (the per-shard
// accounting itself is exact).
func noteInsert(added int64, evicted int, freed int64) {
	gCacheLen.Add(int64(1 - evicted))
	gCacheBytes.Add(added - freed)
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
