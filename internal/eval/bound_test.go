package eval

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"picola/internal/face"
)

// entrySizeNV4 is the accounted size of one nv=4 entry: 2 header bytes
// plus two 1-word bitsets, plus the fixed overhead.
const entrySizeNV4 = int64(2+16) + entryBytesOverhead

// sameShardEntries builds k distinct nv=4 entries whose canonical keys
// all hash to one shard, so eviction order is observable.
func sameShardEntries(k int) []CacheEntry {
	var ents []CacheEntry
	shard := uint64(0)
	for v := uint64(1); len(ents) < k; v++ {
		ent := CacheEntry{NV: 4, Used: []uint64{v}, On: []uint64{v & 1}, Cubes: int(v)}
		s := fnvShard(ent.Key())
		if len(ents) == 0 {
			shard = s
		}
		if s == shard {
			ents = append(ents, ent)
		}
	}
	return ents
}

// TestCacheEvictionFIFO: a full shard evicts its oldest entries first,
// in insertion order, and the accounting tracks it exactly.
func TestCacheEvictionFIFO(t *testing.T) {
	c := NewCacheBytes(cacheShards * 3 * entrySizeNV4) // 3 entries per shard
	ents := sameShardEntries(5)
	for i, ent := range ents {
		st, err := c.Import([]CacheEntry{ent})
		if err != nil {
			t.Fatal(err)
		}
		wantEvicted := 0
		if i >= 3 {
			wantEvicted = 1
		}
		if st.Inserted != 1 || st.Evicted != wantEvicted {
			t.Fatalf("insert %d: stats %v, want 1 inserted, %d evicted", i, st, wantEvicted)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.Len())
	}
	if c.Bytes() != 3*entrySizeNV4 {
		t.Fatalf("cache accounts %d bytes, want %d", c.Bytes(), 3*entrySizeNV4)
	}
	// The survivors must be exactly the three newest, FIFO having evicted
	// ents[0] and ents[1].
	got := map[string]bool{}
	for _, ent := range c.Export() {
		got[string(ent.Key())] = true
	}
	for i, ent := range ents {
		want := i >= 2
		if got[string(ent.Key())] != want {
			t.Errorf("entry %d present=%v, want %v", i, !want, want)
		}
	}
}

// TestCacheEvictionDeterministic: the same insertion sequence against
// the same budget leaves the same surviving entries — the deterministic
// eviction contract.
func TestCacheEvictionDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var seq []CacheEntry
	for i := 0; i < 400; i++ {
		seq = append(seq, CacheEntry{NV: 4, Used: []uint64{r.Uint64()}, On: []uint64{r.Uint64()}, Cubes: i})
	}
	run := func() []CacheEntry {
		c := NewCacheBytes(cacheShards * 2 * entrySizeNV4)
		if _, err := c.Import(seq); err != nil {
			t.Fatal(err)
		}
		return c.Export()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical insert sequences evicted different entries")
	}
}

// TestCacheOversizeEntry: an entry larger than the whole shard budget is
// skipped (never evicts the world to fit), and classified as such.
func TestCacheOversizeEntry(t *testing.T) {
	c := NewCacheBytes(1) // shardBudget 1 byte: nothing fits
	st, err := c.Import(sameShardEntries(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Oversize != 1 || st.Inserted != 0 {
		t.Fatalf("stats %v, want 1 oversize", st)
	}
	if c.Len() != 0 {
		t.Fatalf("oversize entry inserted (%d entries)", c.Len())
	}
}

// TestImportStatsClasses: duplicates and invalid entries land in their
// own counters and never abort the batch.
func TestImportStatsClasses(t *testing.T) {
	c := NewCache()
	ents := sameShardEntries(2)
	batch := []CacheEntry{
		ents[0],
		ents[0], // duplicate within the batch
		{NV: 0},
		{NV: cacheMaxNV + 1, Used: []uint64{1}, On: []uint64{1}},
		{NV: 4, Used: []uint64{1}, On: []uint64{1, 9}},
		{NV: 4, Used: []uint64{2}, On: []uint64{2}, Cubes: -7},
		ents[1],
	}
	st, err := c.Import(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := ImportStats{Inserted: 2, Duplicate: 1, BadNV: 2, BadShape: 1, BadCubes: 1}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if st.Skipped() != 5 {
		t.Fatalf("skipped %d, want 5", st.Skipped())
	}
	// Re-importing the whole batch: everything valid is now a duplicate.
	st, err = c.Import(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted != 0 || st.Duplicate != 3 {
		t.Fatalf("re-import stats %+v, want 0 inserted, 3 duplicate", st)
	}
}

// TestCacheExportWhileEncoding hammers Export against concurrent
// encoding-driven inserts and evictions on a tightly bounded cache;
// under -race this is the store-snapshot concurrency gate. Every
// exported entry must individually parse back to a valid signature, and
// every lookup must still return the uncached value.
func TestCacheExportWhileEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	type inst struct {
		e    *face.Encoding
		c    face.Constraint
		want int
	}
	var insts []inst
	for i := 0; i < 30; i++ {
		e, c := randomInstance(r)
		want, err := ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst{e, c, want})
	}
	// A budget of a few entries per shard keeps eviction churning while
	// Export walks the shards.
	cache := NewCacheBytes(cacheShards * 4 * 256)
	var encoders, exporter sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		encoders.Add(1)
		go func(w int) {
			defer encoders.Done()
			for round := 0; round < 20; round++ {
				for _, in := range insts {
					got, err := cache.ConstraintCubes(in.e, in.c)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if got != in.want {
						t.Errorf("worker %d: cached %d, want %d", w, got, in.want)
						return
					}
				}
			}
		}(w)
	}
	exporter.Add(1)
	go func() {
		defer exporter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ent := range cache.Export() {
				if w := entryWords(ent.NV); len(ent.Used) != w || len(ent.On) != w {
					t.Errorf("export produced a malformed entry: %+v", ent)
					return
				}
			}
		}
	}()
	encoders.Wait()
	close(stop)
	exporter.Wait()
}
