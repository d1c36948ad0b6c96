package evalstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"picola/internal/eval"
	"picola/internal/ir"
)

// testEntry builds a distinct valid nv=4 entry from an index.
func testEntry(i int) eval.CacheEntry {
	return eval.CacheEntry{
		Heuristic: i%2 == 1,
		NV:        4,
		Used:      []uint64{0xffff},
		On:        []uint64{uint64(i)&0x7fff | 1},
		Cubes:     i%5 + 1,
	}
}

// keyString returns the entry's canonical key bytes: tag, nv, then the
// used and ON words little-endian.
func keyString(ent eval.CacheEntry) string {
	b := []byte{0, byte(ent.NV)}
	if ent.Heuristic {
		b[0] = 1
	}
	for _, w := range append(slices.Clone(ent.Used), ent.On...) {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

func testEntries(n int) []eval.CacheEntry {
	out := make([]eval.CacheEntry, n)
	for i := range out {
		out[i] = testEntry(i)
	}
	return out
}

// Entries returns every distinct entry on disk in canonical key order
// (the inventory view; unreadable inputs skipped as in Load, and no
// in-memory cache bound applied — the full store is always returned).
func (s *Store) Entries() ([]eval.CacheEntry, error) {
	entries, _, err := s.readAll()
	if err != nil {
		return nil, err
	}
	eval.SortEntries(entries)
	return entries, nil
}

// loadAll reopens dir and returns its canonical entry inventory.
func loadAll(t *testing.T, dir string) []eval.CacheEntry {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entries, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestStoreRoundTrip: append → load → compact → load yields the same
// entries, the compaction leaves an empty WAL, and appends dedup
// against what is already on disk.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(64)
	n, err := s.Append(want)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("appended %d entries, want %d", n, len(want))
	}
	if n, err = s.Append(want); err != nil || n != 0 {
		t.Fatalf("re-append wrote %d entries (err %v), want 0", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got := loadAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("loaded %d entries, want %d", len(got), len(want))
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := eval.NewCache()
	st, err := s2.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(want) || st.Import.Inserted != len(want) || st.Import.Skipped() != 0 {
		t.Fatalf("load stats %+v, want %d clean inserts", st, len(want))
	}
	// A cross-process appender dedups against loaded state too.
	if n, err := s2.Append(want); err != nil || n != 0 {
		t.Fatalf("append after load wrote %d (err %v), want 0", n, err)
	}
	cst, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Entries != len(want) {
		t.Fatalf("compacted %d entries, want %d", cst.Entries, len(want))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after compact: %v size %v, want empty", err, fi)
	}
	if post := loadAll(t, dir); !reflect.DeepEqual(post, got) {
		t.Fatalf("entries changed across compaction")
	}
}

// TestStoreSkipsCorruptShard: a shard file overwritten with garbage is
// skipped and counted; the rest of the store still loads.
func TestStoreSkipsCorruptShard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(64)
	if _, err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one shard that actually holds entries.
	var victim string
	lost := -1
	for i := 0; i < storeShards; i++ {
		p := filepath.Join(dir, shardName(i))
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		f, err := ir.Unmarshal(b)
		if err != nil {
			t.Fatalf("shard %d unreadable before corruption: %v", i, err)
		}
		if len(f.CacheEntries) > 0 {
			victim, lost = p, len(f.CacheEntries)
			break
		}
	}
	if victim == "" {
		t.Fatal("no populated shard to corrupt")
	}
	if err := os.WriteFile(victim, []byte("not a picola-ir file"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c := eval.NewCache()
	st, err := s2.Load(c)
	if err != nil {
		t.Fatalf("load with corrupt shard must not fail: %v", err)
	}
	if st.SkippedShards != 1 {
		t.Fatalf("SkippedShards = %d, want 1", st.SkippedShards)
	}
	if st.Entries != len(want)-lost {
		t.Fatalf("loaded %d entries, want %d (lost shard held %d)",
			st.Entries, len(want)-lost, lost)
	}
}

// TestStoreTornWAL: truncating the WAL mid-frame loses only the torn
// tail; every frame before the tear loads, and the tear is accounted.
func TestStoreTornWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, second := testEntries(8), testEntries(16)[8:]
	if _, err := s.Append(first); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(second); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, wal[:len(wal)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load(eval.NewCache())
	if err != nil {
		t.Fatalf("load with torn WAL must not fail: %v", err)
	}
	if st.WALFrames != 1 || st.Entries != len(first) {
		t.Fatalf("torn WAL: %d frames / %d entries, want 1 / %d",
			st.WALFrames, st.Entries, len(first))
	}
	if st.WALTornBytes == 0 {
		t.Fatal("torn tail not accounted")
	}
}

// TestStoreBadWALFrame: a well-framed payload that is not a valid
// picola-ir container is counted and skipped, and later frames still
// load.
func TestStoreBadWALFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testEntries(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Splice a valid frame carrying junk in front of the real one.
	journal := ir.AppendFrame(nil, []byte("junk payload"))
	journal = append(journal, wal...)
	if err := os.WriteFile(walPath, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if st.WALBadFrames != 1 || st.WALFrames != 1 || st.Entries != 4 {
		t.Fatalf("bad-frame WAL: %+v, want 1 bad / 1 good / 4 entries", st)
	}
}

// TestStoreInterruptedCompaction: a WAL left behind after the shard
// renames (the crash window) only duplicates entries; loads dedup to
// the same inventory.
func TestStoreInterruptedCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(32)
	if _, err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// Restore the pre-truncation WAL: the state a crash between the
	// final rename and the truncate leaves on disk.
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	st, err := s3.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(want) {
		t.Fatalf("post-crash load found %d entries, want %d (dedup failed)",
			st.Entries, len(want))
	}
}

// TestStoreChunkedAppend: one Append larger than a frame's entry budget
// splits into multiple WAL frames — the corpus-scale path where a
// single frame would exceed the decoder's section cap and the whole
// export would be unreadable — and the inventory round-trips intact.
func TestStoreChunkedAppend(t *testing.T) {
	old := appendChunkEntries
	appendChunkEntries = 7
	defer func() { appendChunkEntries = old }()

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(64)
	n, err := s.Append(want)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("appended %d entries, want %d", n, len(want))
	}
	if n, err := s.Append(want); err != nil || n != 0 {
		t.Fatalf("re-append wrote %d entries (err %v), want 0", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := (len(want) + 6) / 7
	if st.WALFrames != wantFrames || st.WALBadFrames != 0 {
		t.Fatalf("WAL frames %d (bad %d), want %d clean frames",
			st.WALFrames, st.WALBadFrames, wantFrames)
	}
	if st.Entries != len(want) {
		t.Fatalf("loaded %d entries, want %d", st.Entries, len(want))
	}
}

// TestStoreCompactKeepsUndecodableWAL: a CRC-valid WAL frame the
// decoder rejects is the only copy of whatever it holds, so compaction
// must keep the journal instead of truncating those bytes away.
func TestStoreCompactKeepsUndecodableWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntries(4)
	if _, err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	journal := ir.AppendFrame(nil, []byte("frame from the future"))
	journal = append(journal, wal...)
	if err := os.WriteFile(walPath, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if !cst.KeptWAL {
		t.Fatal("compaction truncated a WAL holding an undecodable frame")
	}
	if cst.Entries != len(want) {
		t.Fatalf("compacted %d entries, want %d", cst.Entries, len(want))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("WAL after keep-compaction: %v size %v, want intact", err, fi)
	}

	// The readable entries are in shards now AND still in the journal;
	// a later load still dedups to the same inventory.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	st, err := s3.Load(eval.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(want) || st.WALBadFrames != 1 {
		t.Fatalf("post-compaction load %+v, want %d entries / 1 bad frame", st, len(want))
	}
}

// TestStoreEntriesCanonicalOrder: the inventory is sorted by canonical
// key regardless of append order.
func TestStoreEntriesCanonicalOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ents := testEntries(16)
	for i := len(ents) - 1; i >= 0; i-- {
		if _, err := s.Append(ents[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if keyString(got[i-1]) >= keyString(got[i]) {
			t.Fatalf("inventory out of canonical order at %d", i)
		}
	}
}

// TestStoreAppendAfterTornTail: entries appended after a torn WAL tail
// must load. Append cuts the tail back to the clean frame prefix before
// its first write — whether a Load scanned the WAL first or Append has
// to — so the new frames are not hidden behind the tear and a later
// compaction keeps them.
func TestStoreAppendAfterTornTail(t *testing.T) {
	for _, load := range []bool{true, false} {
		name := "without-load"
		if load {
			name = "after-load"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			all := testEntries(40)
			if _, err := s.Append(all[:8]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(all[8:16]); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, walName)
			wal, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, wal[:len(wal)-3], 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if load {
				if _, err := s2.Load(eval.NewCache()); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := s2.Append(all[16:]); n != 24 || err != nil {
				t.Fatalf("append after tear wrote %d (err %v), want 24", n, err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if got := len(loadAll(t, dir)); got != 32 {
				t.Fatalf("reload found %d entries, want 32 (8 before the tear + 24 appended)", got)
			}
			s3, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cst, err := s3.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if err := s3.Close(); err != nil {
				t.Fatal(err)
			}
			if cst.Entries != 32 {
				t.Fatalf("compaction kept %d entries, want 32", cst.Entries)
			}
		})
	}
}

// TestStoreTornTailGrownWAL: the torn-tail repair never cuts a WAL that
// grew after the scan that found the tear — the growth may be another
// process's frame in flight.
func TestStoreTornTailGrownWAL(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walName)
	frame, err := ir.Marshal(&ir.File{CacheEntries: testEntries(4)})
	if err != nil {
		t.Fatal(err)
	}
	torn := ir.AppendFrame(nil, frame)
	torn = torn[:len(torn)-3]
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Load(eval.NewCache()); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testEntries(8)[4:]); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	want := append(torn, "xyz"...)
	if !bytes.HasPrefix(got, want) {
		t.Fatal("append cut a WAL that grew after the scan")
	}
}

// TestStoreFileModes: shard files get the WAL's mode, so a store written
// by one user loads for every user the WAL is readable by.
func TestStoreFileModes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(testEntries(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	shards := 0
	for i := 0; i < storeShards; i++ {
		fi, err := os.Stat(filepath.Join(dir, shardName(i)))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		shards++
		if fi.Mode().Perm() != wal.Mode().Perm() {
			t.Errorf("%s mode %v, WAL mode %v", shardName(i), fi.Mode().Perm(), wal.Mode().Perm())
		}
	}
	if shards == 0 {
		t.Fatal("compaction wrote no shard")
	}
}

// TestCreateTempSkipsStaleName: a temp name a crashed process left
// behind is skipped, never opened over.
func TestCreateTempSkipsStaleName(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, fmt.Sprintf("shard-00.ir.tmp-%d-%d", os.Getpid(), tempSeq.Load()+1))
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := createTemp(dir, "shard-00.ir")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Name() == stale {
		t.Fatal("createTemp reused a stale temp name")
	}
	if b, err := os.ReadFile(stale); err != nil || string(b) != "stale" {
		t.Fatalf("stale temp file disturbed: %q, %v", b, err)
	}
}

// TestStoreCompactEmptyWAL: with nothing in the WAL to fold, Compact
// touches no shard — same bytes, same mtime, no temp file — and reports
// that it wrote nothing.
func TestStoreCompactEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(testEntries(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	past := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	before := map[string][]byte{}
	for i := 0; i < storeShards; i++ {
		p := filepath.Join(dir, shardName(i))
		b, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		before[p] = b
		if err := os.Chtimes(p, past, past); err != nil {
			t.Fatal(err)
		}
	}
	if len(before) == 0 {
		t.Fatal("no shard written")
	}
	cst, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Entries != 0 || cst.ShardFiles != 0 {
		t.Fatalf("empty-WAL compaction stats %+v, want nothing written", cst)
	}
	for p, b := range before {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(past) {
			t.Errorf("%s rewritten (mtime %v)", filepath.Base(p), fi.ModTime())
		}
		if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, b) {
			t.Errorf("%s changed (err %v)", filepath.Base(p), err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.Contains(de.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", de.Name())
		}
	}
}

// TestStoreCompactTornOnlyWAL: a WAL holding only a torn tail is not
// "nothing to fold" — the compaction runs and truncates it.
func TestStoreCompactTornOnlyWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := testEntries(16)
	if _, err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	frame, err := ir.Marshal(&ir.File{CacheEntries: testEntries(20)[16:]})
	if err != nil {
		t.Fatal(err)
	}
	torn := ir.AppendFrame(nil, frame)
	torn = torn[:len(torn)-1]
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	cst, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Entries != len(want) || cst.WALBytes != int64(len(torn)) || cst.KeptWAL {
		t.Fatalf("torn-only compaction %+v, want %d entries and %d WAL bytes reclaimed",
			cst, len(want), len(torn))
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL after compaction: %v size %v, want empty", err, fi)
	}
}

// sequentialRead is the reference reader the concurrent Load must
// match: the shard files in order, then the WAL's frames in order, one
// entry at a time, the first entry of each key at nv ≤ 6 winning.
func sequentialRead(t *testing.T, dir string) ([]eval.CacheEntry, LoadStats) {
	t.Helper()
	var st LoadStats
	var out []eval.CacheEntry
	seen := map[string]bool{}
	add := func(batch []eval.CacheEntry) {
		for _, ent := range batch {
			if ent.NV > 6 {
				st.Wide++
			} else if k := keyString(ent); !seen[k] {
				seen[k] = true
				out = append(out, ent)
			}
		}
	}
	for i := 0; i < storeShards; i++ {
		b, err := os.ReadFile(filepath.Join(dir, shardName(i)))
		if os.IsNotExist(err) {
			continue
		}
		f, err := ir.Unmarshal(b)
		if err != nil {
			st.SkippedShards++
			continue
		}
		st.ShardFiles++
		add(f.CacheEntries)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	payloads, clean := ir.ScanFrames(wal)
	st.WALTornBytes = len(wal) - clean
	for _, p := range payloads {
		f, err := ir.Unmarshal(p)
		if err != nil {
			st.WALBadFrames++
			continue
		}
		st.WALFrames++
		add(f.CacheEntries)
	}
	st.Entries = len(out)
	return out, st
}

// conflictStore writes a compacted store of n entries, then plants
// conflicts the merge order must resolve: a key present in two shards
// with different counts, a key present in a shard and in the WAL with
// different counts, a corrupt shard, and a WAL with a bad frame and a
// torn tail. It returns the two conflicting keys' expected winners.
func conflictStore(t *testing.T, dir string, n int) (shardWin, walLose eval.CacheEntry) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testEntries(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	shard := func(i int) []eval.CacheEntry {
		b, err := os.ReadFile(filepath.Join(dir, shardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return f.CacheEntries
	}
	write := func(i int, ents []eval.CacheEntry) {
		b, err := ir.Marshal(&ir.File{CacheEntries: ents})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shardName(i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The first entry of shard 2 reappears, with another count, at the
	// front of shard 9: shard 2 must win.
	first := shard(2)
	shardWin = first[0]
	dup := shardWin
	dup.Cubes += 10
	write(9, append([]eval.CacheEntry{dup}, shard(9)...))
	// Shard 5 becomes unreadable.
	if err := os.WriteFile(filepath.Join(dir, shardName(5)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The WAL re-sends the first entry of shard 7 with another count
	// (the shard must win), adds fresh entries, and ends in a bad frame
	// and a torn tail.
	walLose = shard(7)[0]
	resent := walLose
	resent.Cubes += 20
	frame, err := ir.Marshal(&ir.File{CacheEntries: append([]eval.CacheEntry{resent}, testEntries(n + 8)[n:]...)})
	if err != nil {
		t.Fatal(err)
	}
	journal := ir.AppendFrame(nil, frame)
	journal = ir.AppendFrame(journal, []byte("not a container"))
	journal = append(journal, ir.AppendFrame(nil, frame)[:5]...)
	if err := os.WriteFile(filepath.Join(dir, walName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return shardWin, walLose
}

// TestStoreLoadMatchesSequential: the concurrent shard decode merges to
// exactly what a sequential shard-then-WAL read yields — the same
// LoadStats, the same first-wins winners, and the same cache contents.
func TestStoreLoadMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	shardWin, walLose := conflictStore(t, dir, 300)
	ref, refStats := sequentialRead(t, dir)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := eval.NewCache()
	st, err := s.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	refCache := eval.NewCache()
	if refStats.Import, err = refCache.Import(ref); err != nil {
		t.Fatal(err)
	}
	if st != refStats {
		t.Fatalf("load stats %+v, sequential reference %+v", st, refStats)
	}
	if st.SkippedShards != 1 || st.WALBadFrames != 1 || st.WALTornBytes != 5 || st.WALFrames != 1 {
		t.Fatalf("load stats %+v do not show the planted damage", st)
	}
	got := c.Export()
	if !reflect.DeepEqual(got, refCache.Export()) {
		t.Fatal("loaded cache differs from the sequential reference")
	}
	for _, win := range []eval.CacheEntry{shardWin, walLose} {
		k := keyString(win)
		for _, ent := range got {
			if keyString(ent) == k && ent.Cubes != win.Cubes {
				t.Errorf("key won by count %d, want the first on disk, %d", ent.Cubes, win.Cubes)
			}
		}
	}
}

// TestStoreLoadEvictingBudget: loading into a cache too small for the
// store evicts in the sequential insertion order, so what survives is
// exactly what the sequential reference leaves.
func TestStoreLoadEvictingBudget(t *testing.T) {
	dir := t.TempDir()
	conflictStore(t, dir, 600)
	ref, _ := sequentialRead(t, dir)
	// About three nv=4 entries per cache shard.
	const budget = 64 * 3 * (18 + 64)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := eval.NewCacheBytes(budget)
	st, err := s.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	refCache := eval.NewCacheBytes(budget)
	refImport, err := refCache.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	if st.Import != refImport || st.Import.Evicted == 0 {
		t.Fatalf("import %+v, sequential reference %+v (want evictions)", st.Import, refImport)
	}
	if !reflect.DeepEqual(c.Export(), refCache.Export()) {
		t.Fatal("surviving entries differ from the sequential reference")
	}
}

// TestStoreReadForgetsLostEntries: a read replaces the known set, so an
// entry this process appended that has since left the disk is appended
// again, not taken for stored. The journal goes either removed while
// the store holds no handle, or truncated under its open handle, as
// another process's compaction does.
func TestStoreReadForgetsLostEntries(t *testing.T) {
	for _, lose := range []string{"removed", "truncated"} {
		t.Run(lose, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ents := testEntries(50)
			if n, err := s.Append(ents); n != len(ents) || err != nil {
				t.Fatalf("append wrote %d (err %v), want %d", n, err, len(ents))
			}
			walPath := filepath.Join(dir, walName)
			if lose == "removed" {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				err = os.Remove(walPath)
			} else {
				err = os.Truncate(walPath, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			if st, err := s.Load(nil); st.Entries != 0 || err != nil {
				t.Fatalf("read found %d entries (err %v), want 0", st.Entries, err)
			}
			if n, err := s.Append(ents); n != len(ents) || err != nil {
				t.Fatalf("re-append wrote %d (err %v), want %d: the lost entries stayed known", n, err, len(ents))
			}
			if got := len(loadAll(t, dir)); got != len(ents) {
				t.Fatalf("reload found %d entries, want %d", got, len(ents))
			}
		})
	}
}

// layoutEntries regenerates the entries of testdata/layout-v1, a store
// written by an earlier version of this package: entries at nv 1–6 and
// nv 7–8 of both policies, spread over 15 shards.
func layoutEntries() []eval.CacheEntry {
	r := rand.New(rand.NewSource(11))
	seen := map[string]bool{}
	var out []eval.CacheEntry
	for nv := 1; nv <= 8; nv++ {
		for _, heuristic := range []bool{false, true} {
			for k := 0; k < 3; k++ {
				w := ((1 << nv) + 63) / 64
				ent := eval.CacheEntry{Heuristic: heuristic, NV: nv, Used: make([]uint64, w), On: make([]uint64, w), Cubes: 1 + r.Intn(9)}
				for i := range ent.Used {
					ent.Used[i] = r.Uint64()
					if nv < 6 {
						ent.Used[i] &= 1<<(1<<nv) - 1
					}
					ent.On[i] = ent.Used[i] & r.Uint64()
				}
				if k := keyString(ent); !seen[k] {
					seen[k] = true
					out = append(out, ent)
				}
			}
		}
	}
	return out
}

// atMostNV6 returns the entries at nv ≤ 6, the ones a store holds.
func atMostNV6(ents []eval.CacheEntry) []eval.CacheEntry {
	var out []eval.CacheEntry
	for _, ent := range ents {
		if ent.NV <= 6 {
			out = append(out, ent)
		}
	}
	return out
}

// TestStoreLayoutStable pins the on-disk layout across versions. A
// store an earlier version wrote loads exactly its entries at nv ≤ 6
// and counts the ones above. Appending and compacting all of its
// entries into a fresh directory writes those at nv ≤ 6 — each to the
// shard it hashes to, in the same order and encoding — and no other:
// a golden shard that holds only such entries comes back byte for
// byte, and every other golden shard's entries at nv ≤ 6 come back in
// order.
func TestStoreLayoutStable(t *testing.T) {
	const golden = "testdata/layout-v1"
	all := layoutEntries()
	want := atMostNV6(all)
	if len(want) != 34 || len(all)-len(want) != 12 {
		t.Fatalf("layout fixture regenerated %d entries at nv <= 6 and %d above, want 34 and 12",
			len(want), len(all)-len(want))
	}
	s, err := Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	c := eval.NewCache()
	st, err := s.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(want) || st.Import.Inserted != len(want) || st.Wide != len(all)-len(want) ||
		st.SkippedShards != 0 || st.WALFrames != 0 {
		t.Fatalf("load stats %+v, want %d entries and %d wide from clean shards", st, len(want), len(all)-len(want))
	}
	sorted := slices.Clone(want)
	eval.SortEntries(sorted)
	if got := c.Export(); !reflect.DeepEqual(got, sorted) {
		t.Fatal("the loaded entries differ from the ones the store was written with")
	}

	dir := t.TempDir()
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if n, err := fresh.Append(all); n != len(want) || err != nil {
		t.Fatalf("append wrote %d (err %v), want %d", n, err, len(want))
	}
	if _, err := fresh.Compact(); err != nil {
		t.Fatal(err)
	}
	goldenFiles, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := map[string]bool{}
	whole := 0
	for _, de := range goldenFiles {
		wantB, err := os.ReadFile(filepath.Join(golden, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if de.Name() == walName {
			wantFiles[walName] = true
			if !bytes.Equal(gotB, wantB) {
				t.Errorf("%s differs from the golden store's", de.Name())
			}
			continue
		}
		gf, err := ir.Unmarshal(wantB)
		if err != nil {
			t.Fatal(err)
		}
		kept := atMostNV6(gf.CacheEntries)
		if len(kept) > 0 {
			wantFiles[de.Name()] = true
		}
		if len(kept) == len(gf.CacheEntries) {
			whole++
			if !bytes.Equal(gotB, wantB) {
				t.Errorf("%s differs from the golden store's", de.Name())
			}
			continue
		}
		var got []eval.CacheEntry
		if gotB != nil {
			f, err := ir.Unmarshal(gotB)
			if err != nil {
				t.Fatal(err)
			}
			got = f.CacheEntries
		}
		if !reflect.DeepEqual(got, kept) {
			t.Errorf("%s holds %d entries, want the golden shard's %d at nv <= 6 in its order", de.Name(), len(got), len(kept))
		}
	}
	if whole != 4 {
		t.Errorf("%d golden shards hold only entries at nv <= 6, want 4", whole)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range files {
		if !wantFiles[de.Name()] {
			t.Errorf("rewrite made %s, which holds no golden entry at nv <= 6", de.Name())
		}
	}
	if len(files) != len(wantFiles) {
		t.Errorf("rewrite made %d files, want %d", len(files), len(wantFiles))
	}
}

// TestStoreCompactDropsWide: a store whose shards still hold entries
// above nv 6 — written by an earlier version, here a copy of
// testdata/layout-v1, whose WAL is empty — loses them to the first
// Compact after a read that skipped them, so the next Load decodes none,
// and its entries at nv ≤ 6 come through unchanged. A second Compact
// then has nothing to fold.
func TestStoreCompactDropsWide(t *testing.T) {
	const golden = "testdata/layout-v1"
	dir := t.TempDir()
	files, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range files {
		b, err := os.ReadFile(filepath.Join(golden, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := eval.NewCache()
	st, err := s.Load(before)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wide != 12 || st.Entries != 34 {
		t.Fatalf("first load stats %+v, want 34 entries and 12 wide", st)
	}
	cst, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cst.Entries != 34 {
		t.Fatalf("compaction stats %+v, want the 34 entries at nv <= 6 written", cst)
	}
	after := eval.NewCache()
	if st, err = s.Load(after); err != nil {
		t.Fatal(err)
	}
	if st.Wide != 0 || st.Entries != 34 {
		t.Fatalf("load after compaction stats %+v, want 34 entries and none wide", st)
	}
	if !reflect.DeepEqual(after.Export(), before.Export()) {
		t.Fatal("compaction changed the entries at nv <= 6")
	}
	if cst, err = s.Compact(); err != nil || cst.ShardFiles != 0 {
		t.Fatalf("second compaction %+v (err %v), want nothing written", cst, err)
	}
}
