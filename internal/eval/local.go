package eval

import (
	"context"
	"math/bits"

	"picola/internal/ctxutil"
	"picola/internal/face"
)

// Local is one goroutine's front of a Cache for exact requests under a
// run context: it answers a request it has answered before from a
// private map, and sends every first sight down the shared path
// unchanged and in the same order. About half of a core encoder's exact
// requests repeat a key it asked for before; a repeat here builds the
// two bitset words and probes one map, with no lock, atomic, clock, pool
// or context check. A repeat runs no minimization, so it needs no
// deadline check.
//
// The front memoizes what the shared cache memoizes (nv ≤ memoMaxNV,
// injective codes) and records how the shared path first answered each
// key: a hit or an inserted count, which the shared path would answer
// again as a hit, or the satisfied certificate. It tallies those
// answers for its repeats, and Flush adds them to eval.cache.hits and
// eval.warm.hits, so the registry reads as if every repeat had gone
// down the shared path wherever the shared cache evicts nothing. Under
// eviction the front only saves the recomputation. A count not inserted
// is not memoized here either: its repeats go down the shared path.
//
// A front never changes a count: each entry is the shared path's answer
// to the same key, a pure function of that key. A nil Cache gives a
// front that computes every request. A Local is not safe for concurrent
// use.
type Local struct {
	c    *Cache
	memo map[localKey]localSlot
	// kb is the first sight's key scratch, owned instead of pooled.
	kb keyBuf
	// hits and certs are the shared-path answers the repeats stand for,
	// added to the registry by Flush.
	hits, certs int64
}

// localKey is a memoizable request: its code length and its one-word ON
// and used bitsets.
type localKey struct {
	on, used uint64
	nv       int
}

// localSlot is a memoized count and whether the certificate answered it.
type localSlot struct {
	cubes     int32
	certified bool
}

// Local returns a new front of the cache; a nil cache gives a front that
// computes every request.
func (c *Cache) Local() *Local { return &Local{c: c} }

// ConstraintCubes is Cache.ConstraintCubes under a run context, through
// the front: the deadline is checked at the minimization boundary, and a
// cancelled call returns a wrapped context error instead of a count.
func (l *Local) ConstraintCubes(ctx context.Context, e *face.Encoding, con face.Constraint) (int, error) {
	if l.c == nil {
		return l.c.constraintCubes(ctx, e, con, false)
	}
	on, used, ok := requestWords(e, con)
	if !ok {
		return l.c.constraintCubes(ctx, e, con, false)
	}
	k := localKey{on: on, used: used, nv: e.NV}
	if n, ok := l.repeat(k); ok {
		return n, nil
	}
	if err := ctxutil.Check(ctx, "eval.minimize"); err != nil {
		return 0, err
	}
	l.kb.words = append(l.kb.words[:0], on, used)
	l.kb.injective = true
	l.kb.setKey(false, e.NV)
	n, how, err := l.c.memoized(ctx, e, con, false, &l.kb)
	if err != nil {
		return 0, err
	}
	if how != answerComputed {
		if l.memo == nil {
			l.memo = make(map[localKey]localSlot)
		}
		l.memo[k] = localSlot{cubes: int32(n), certified: how == answerCertified}
	}
	return n, nil
}

// repeat answers a request the front has answered before and tallies
// the shared-path answer it stands for.
//
//picola:hot
func (l *Local) repeat(k localKey) (int, bool) {
	v, ok := l.memo[k]
	if !ok {
		return 0, false
	}
	if v.certified {
		l.certs++
	} else {
		l.hits++
	}
	return int(v.cubes), true
}

// requestWords builds a request's one-word ON and used bitsets in one
// pass over the codes. ok is false where the front does not memoize: a
// code space above memoMaxNV, a constraint over another symbol count,
// or codes that are not all distinct (a member and a non-member may
// share one), which the shared path's full key handles.
//
//picola:hot
func requestWords(e *face.Encoding, con face.Constraint) (on, used uint64, ok bool) {
	if e.NV > memoMaxNV || con.N() != e.N() {
		return 0, 0, false
	}
	mask := e.Mask()
	for s, code := range e.Codes {
		bit := uint64(1) << (code & mask)
		used |= bit
		if con.Has(s) {
			on |= bit
		}
	}
	return on, used, bits.OnesCount64(used) == len(e.Codes)
}

// Flush adds the answers the front's repeats stand for to
// eval.cache.hits and eval.warm.hits and refreshes the hit-rate gauge.
// A nil front flushes nothing.
func (l *Local) Flush() {
	if l == nil || l.hits+l.certs == 0 {
		return
	}
	mCacheHits.Add(l.hits)
	mWarmHits.Add(l.certs)
	l.hits, l.certs = 0, 0
	updateRate()
}
