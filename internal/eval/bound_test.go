package eval

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"picola/internal/exact"
	"picola/internal/face"
)

// entrySizeNV4 is the accounted size of one nv=4 entry: 2 header bytes
// plus two 1-word bitsets, plus the fixed overhead.
const entrySizeNV4 = int64(2+16) + entryBytesOverhead

// sameShardEntries builds k distinct entries whose canonical keys all
// hash to one shard, so eviction order is observable. Their code
// lengths cycle through nvs (nv = 4 when none is given).
func sameShardEntries(k int, nvs ...int) []CacheEntry {
	if len(nvs) == 0 {
		nvs = []int{4}
	}
	var ents []CacheEntry
	shard := uint64(0)
	for v := uint64(1); len(ents) < k; v++ {
		nv := nvs[len(ents)%len(nvs)]
		w := entryWords(nv)
		ent := CacheEntry{NV: nv, Used: make([]uint64, w), On: make([]uint64, w), Cubes: int(v)}
		ent.Used[0], ent.On[0] = v, v&1
		s := ent.ShardHash() % cacheShards
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
// in insertion order across both key widths, and the accounting tracks
// it exactly. A FIFO queue over the same budget is the reference.
func TestCacheEvictionFIFO(t *testing.T) {
	const entrySizeNV8 = int64(2+16*4) + entryBytesOverhead
	for _, tc := range []struct {
		name     string
		ents     []CacheEntry
		perShard int64
	}{
		{"nv4", sameShardEntries(5), 3 * entrySizeNV4},
		{"nv4+nv8", sameShardEntries(9, 4, 8), 2*entrySizeNV4 + entrySizeNV8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCacheBytes(cacheShards * tc.perShard)
			var live []CacheEntry
			var liveBytes int64
			size := func(ent CacheEntry) int64 { return int64(len(ent.Key())) + entryBytesOverhead }
			for i, ent := range tc.ents {
				wantEvicted := 0
				for liveBytes+size(ent) > tc.perShard {
					liveBytes -= size(live[0])
					live = live[1:]
					wantEvicted++
				}
				live = append(live, ent)
				liveBytes += size(ent)
				st, err := c.Import([]CacheEntry{ent})
				if err != nil {
					t.Fatal(err)
				}
				if st.Inserted != 1 || st.Evicted != wantEvicted {
					t.Fatalf("insert %d: stats %v, want 1 inserted, %d evicted", i, st, wantEvicted)
				}
				if c.Len() != len(live) || c.Bytes() != liveBytes {
					t.Fatalf("insert %d: cache holds %d entries / %d bytes, want %d / %d",
						i, c.Len(), c.Bytes(), len(live), liveBytes)
				}
				got := map[string]bool{}
				for _, ent := range c.Export() {
					got[string(ent.Key())] = true
				}
				for _, ent := range live {
					if !got[string(ent.Key())] {
						t.Fatalf("insert %d: entry nv=%d used=%#x evicted out of insertion order",
							i, ent.NV, ent.Used[0])
					}
				}
			}
			if len(live) == len(tc.ents) {
				t.Fatal("the sequence never filled the shard")
			}
		})
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
// own counters and never abort the batch. A count too large for the
// cache's int32 storage is refused, never truncated, and so is an
// exact-tagged entry above exact.MaxInputs, where espresso computes the
// exact requests and their keys carry its tag.
func TestImportStatsClasses(t *testing.T) {
	c := NewCache()
	ents := sameShardEntries(2)
	over := entryWords(exact.MaxInputs + 1)
	batch := []CacheEntry{
		ents[0],
		ents[0], // duplicate within the batch
		{NV: 0},
		{NV: cacheMaxNV + 1, Used: []uint64{1}, On: []uint64{1}},
		{NV: exact.MaxInputs + 1, Used: make([]uint64, over), On: make([]uint64, over), Cubes: 3},
		{NV: 4, Used: []uint64{1}, On: []uint64{1, 9}},
		{NV: 4, Used: []uint64{2}, On: []uint64{2}, Cubes: -7},
		{NV: 4, Used: []uint64{3}, On: []uint64{3}, Cubes: math.MaxInt32 + 1},
		ents[1],
	}
	st, err := c.Import(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := ImportStats{Inserted: 2, Duplicate: 1, BadNV: 3, BadShape: 1, BadCubes: 2}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if st.Skipped() != 7 {
		t.Fatalf("skipped %d, want 7", st.Skipped())
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
