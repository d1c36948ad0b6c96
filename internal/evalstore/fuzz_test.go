package evalstore

import (
	"os"
	"path/filepath"
	"testing"

	"picola/internal/eval"
	"picola/internal/ir"
)

// FuzzCacheShardLoad feeds arbitrary bytes to the store's two on-disk
// surfaces — a shard file and the WAL — and requires that Load never
// panics and never fails: hostile or damaged store contents degrade to
// skip counts, not crashes. This is the crash-safety contract the batch
// runner relies on when it reopens a store a dead process left behind.
func FuzzCacheShardLoad(f *testing.F) {
	valid, err := ir.Marshal(&ir.File{CacheEntries: []eval.CacheEntry{{
		NV: 4, Used: []uint64{0xffff}, On: []uint64{3}, Cubes: 1,
	}}})
	if err != nil {
		f.Fatal(err)
	}
	// An entry above nv 6, which a read skips and counts.
	wide, err := ir.Marshal(&ir.File{CacheEntries: []eval.CacheEntry{{
		NV: 7, Used: []uint64{^uint64(0), 0xff}, On: []uint64{0x5, 0x1}, Cubes: 4,
	}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, []byte{})
	f.Add(valid, ir.AppendFrame(nil, valid))
	f.Add(wide, ir.AppendFrame(nil, valid))
	f.Add([]byte("not an ir file"), ir.AppendFrame(nil, []byte("junk")))
	f.Add(valid[:len(valid)/2], ir.AppendFrame(nil, valid)[:9])
	f.Fuzz(func(t *testing.T, shard []byte, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, shardName(0)), shard, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st, err := s.Load(eval.NewCache())
		if err != nil {
			t.Fatalf("Load must tolerate arbitrary store bytes: %v", err)
		}
		if st.Entries < st.Import.Inserted {
			t.Fatalf("imported %d of %d entries", st.Import.Inserted, st.Entries)
		}
	})
}
