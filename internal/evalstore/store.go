// Package evalstore is the persistent, content-addressed tier behind
// eval.Cache: minimization results keyed by the canonical (policy, nv,
// ON-bitset, used-bitset) signature, stored on disk so repeated corpora
// hit warm across runs and across machines. A memoized count is a pure
// function of its key, so the store can never change an answer — only
// replace an espresso run with a disk read.
//
// Layout under the store directory:
//
//	shard-00.ir … shard-0f.ir   compacted picola-ir/v1 CacheEntries
//	                            containers, entries assigned to shards
//	                            by FNV-1a of their canonical key
//	                            (eval.CacheEntry.ShardHash) and sorted
//	                            by it (eval.CompareEntries)
//	wal.irlog                   the append journal: length+CRC frames
//	                            (internal/ir framing), each payload one
//	                            picola-ir/v1 CacheEntries container
//
// The write cycle is append-then-atomic-rename: new entries are framed
// and appended to the WAL (one Write call per frame), and Compact folds
// shards + WAL into freshly written shard files — each written to a
// temp file and atomically renamed into place — before truncating the
// WAL; with an empty WAL it has nothing to fold and touches no shard. A
// crash at any point loses at most the torn tail of the WAL: Append
// cuts a torn tail back to the clean frame prefix before its first
// write, and compaction truncates the journal only after every shard
// rename, so an interrupted cycle leaves duplicate entries (harmless —
// first wins), never missing ones.
//
// Loads are crash-safe by construction: a torn or corrupt shard file or
// WAL frame is skipped and counted, never fatal. Dropping cache entries
// costs recomputation time only.
package evalstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"picola/internal/eval"
	"picola/internal/ir"
	"picola/internal/obs"
	"picola/internal/par"
)

// Store metrics: entries read at load (before dedup/import), shard
// files and WAL frames skipped as corrupt, entries appended to the WAL,
// entries written by the last compaction, and the current on-disk
// entry count.
var (
	mLoadEntries  = obs.Default.Counter("evalstore.load.entries")
	mLoadSkipped  = obs.Default.Counter("evalstore.load.skipped_shards")
	mLoadBadFrame = obs.Default.Counter("evalstore.load.bad_frames")
	mAppended     = obs.Default.Counter("evalstore.append.entries")
	mCompacted    = obs.Default.Counter("evalstore.compact.entries")
	gEntries      = obs.Default.Gauge("evalstore.entries")
)

const (
	// storeShards is the on-disk shard fan-out. Sixteen files keep any
	// one compaction write small without turning a corpus cache into a
	// directory of thousands of files.
	storeShards = 16
	walName     = "wal.irlog"
)

func shardName(i int) string { return fmt.Sprintf("shard-%02x.ir", i) }

// shardOf assigns an entry to an on-disk shard by the FNV-1a hash of
// its canonical key. The assignment is part of the layout: every process
// sharding the same key space places every entry in the same file.
func shardOf(ent *eval.CacheEntry) int {
	return int(ent.ShardHash() % storeShards)
}

// Store is one on-disk cache directory. All methods are safe for
// concurrent use within a process; cross-process writers are safe
// against each other only for Append (O_APPEND frames), so compaction
// should be left to one process at a time (the batch runner compacts at
// exit).
type Store struct {
	dir string

	mu sync.Mutex
	// known holds the keys believed to be on disk: those the last read
	// found, plus those this process appended since. Append uses it to
	// write only novel entries.
	known *eval.KeySet
	wal   *os.File
	// walSize and walClean are what the last read of the WAL saw: its
	// length and the length of its clean frame prefix (walScanned is
	// false until the first read). Append's torn-tail repair uses them.
	walScanned        bool
	walSize, walClean int64
}

// Open opens (creating if needed) a store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	return &Store{dir: dir, known: eval.NewKeySet(0)}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the WAL handle (if any append opened it).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// LoadStats describes one Load: what was read, what was skipped per
// failure class, and how the import into the in-memory tier went.
type LoadStats struct {
	// ShardFiles is the number of shard files read successfully.
	ShardFiles int
	// SkippedShards counts shard files present but unreadable or
	// corrupt — skipped, their entries lost to recomputation.
	SkippedShards int
	// WALFrames counts valid WAL frames read.
	WALFrames int
	// WALBadFrames counts frames whose payload was not a valid
	// picola-ir/v1 container (skipped).
	WALBadFrames int
	// WALTornBytes is the length of the torn tail dropped from the WAL.
	WALTornBytes int
	// Entries is the number of distinct entries found on disk.
	Entries int
	// Import is the per-class outcome of installing them into the
	// cache; zero when Load was given a nil cache.
	Import eval.ImportStats
}

// Load reads every shard file and the WAL, deduplicates (first wins, in
// shard order then WAL order), and imports the entries into c (skipped
// when c is nil — useful to inventory a store). Torn or corrupt shard
// files and WAL frames are counted and skipped, never fatal; the only
// errors are environmental (an unreadable directory).
func (s *Store) Load(c *eval.Cache) (LoadStats, error) {
	entries, st, err := s.readAll()
	if err != nil {
		return st, err
	}
	if c != nil {
		st.Import, err = c.Import(entries)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// input is one on-disk input of a read, decoded: a shard file (one
// batch) or the WAL (one batch per decodable frame).
type input struct {
	batches [][]eval.CacheEntry
	// corrupt marks a shard file present but unreadable or undecodable.
	corrupt bool
	// badFrames, size and clean describe the WAL: CRC-valid frames that
	// did not decode, the bytes read, and the length of the clean frame
	// prefix.
	badFrames   int
	size, clean int
}

// readShard decodes one shard file; a missing file is an empty input.
func readShard(path string) input {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return input{}
	}
	if err != nil {
		return input{corrupt: true}
	}
	f, err := ir.Unmarshal(b)
	if err != nil {
		return input{corrupt: true}
	}
	return input{batches: [][]eval.CacheEntry{f.CacheEntries}}
}

// readWAL decodes the WAL's clean frame prefix; only an environmental
// read error fails it.
func readWAL(path string) (input, error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return input{}, fmt.Errorf("evalstore: %w", err)
	}
	payloads, clean := ir.ScanFrames(b)
	in := input{size: len(b), clean: clean}
	for _, p := range payloads {
		f, err := ir.Unmarshal(p)
		if err != nil {
			in.badFrames++
			continue
		}
		in.batches = append(in.batches, f.CacheEntries)
	}
	return in, nil
}

// readAll is the single disk-read path shared by Load, Entries, and
// Compact: every distinct entry on disk (first wins, shard order then
// WAL order), plus the skip accounting, with no in-memory cache bound
// applied. The shard files and the WAL are read and decoded
// concurrently; the merge then walks them in the fixed shard-then-WAL
// order, so the result is the sequential one. The dedup set keys narrow
// entries by their words, so it builds no string for them.
func (s *Store) readAll() ([]eval.CacheEntry, LoadStats, error) {
	var st LoadStats
	inputs, err := par.Map(storeShards+1, par.Workers(0), func(i int) (input, error) {
		if i < storeShards {
			return readShard(filepath.Join(s.dir, shardName(i))), nil
		}
		return readWAL(filepath.Join(s.dir, walName))
	})
	if err != nil {
		return nil, st, err
	}
	total := 0
	for _, in := range inputs {
		for _, batch := range in.batches {
			total += len(batch)
		}
	}
	entries := make([]eval.CacheEntry, 0, total)
	seen := eval.NewKeySet(total)
	for i, in := range inputs {
		switch {
		case i == storeShards:
			st.WALFrames = len(in.batches)
			st.WALBadFrames = in.badFrames
			st.WALTornBytes = in.size - in.clean
			mLoadBadFrame.Add(int64(in.badFrames))
		case in.corrupt:
			st.SkippedShards++
			mLoadSkipped.Inc()
		case in.batches != nil:
			st.ShardFiles++
		}
		for _, batch := range in.batches {
			for j := range batch {
				if seen.Add(&batch[j]) {
					entries = append(entries, batch[j])
				}
			}
		}
	}
	st.Entries = len(entries)
	mLoadEntries.Add(int64(len(entries)))
	wal := inputs[storeShards]
	s.noteRead(seen, int64(wal.size), int64(wal.clean))
	return entries, st, nil
}

// noteRead records a read under the lock: its keys replace the known
// set — an entry this process appended that has since left the disk (a
// journal truncated by another process's compaction, a corrupt shard)
// must be appended again — and its WAL scan is kept for Append's
// torn-tail repair.
func (s *Store) noteRead(seen *eval.KeySet, walSize, walClean int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.known = seen
	s.walScanned, s.walSize, s.walClean = true, walSize, walClean
	gEntries.Set(int64(seen.Len()))
}

// appendChunkEntries bounds one WAL frame's entry count. Chunking keeps
// every frame far inside the decoder's section caps — a corpus sweep
// can export millions of entries in one Append — and bounds the peak
// marshal buffer. A var so tests can exercise the multi-frame path with
// small batches.
var appendChunkEntries = 1 << 16

// Append frames the entries not already known to be on disk and appends
// them to the WAL in canonical key order, chunked into frames of at
// most appendChunkEntries, returning how many entries were written.
// Appending is the cheap end of the compaction cycle: O_APPEND frame
// writes, no rewrite of any shard. A failure mid-way leaves the already
// written frames valid — the next load deduplicates.
func (s *Store) Append(entries []eval.CacheEntry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var fresh []int // indexes into entries
	for i := range entries {
		if !s.known.Has(&entries[i]) {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	slices.SortFunc(fresh, func(a, b int) int { return eval.CompareEntries(&entries[a], &entries[b]) })
	if s.wal == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, walName),
			os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, fmt.Errorf("evalstore: %w", err)
		}
		if err := s.repairTornTail(f); err != nil {
			_ = f.Close() // the repair error is the one to report
			return 0, fmt.Errorf("evalstore: %w", err)
		}
		s.wal = f
	}
	written := 0
	ents := make([]eval.CacheEntry, 0, min(len(fresh), appendChunkEntries))
	for len(fresh) > 0 {
		batch := fresh[:min(len(fresh), appendChunkEntries)]
		ents = ents[:0]
		for _, i := range batch {
			ents = append(ents, entries[i])
		}
		payload, err := ir.Marshal(&ir.File{CacheEntries: ents})
		if err != nil {
			return written, fmt.Errorf("evalstore: %w", err)
		}
		if err := ir.WriteFrame(s.wal, payload); err != nil {
			return written, fmt.Errorf("evalstore: %w", err)
		}
		for i := range ents {
			s.known.Add(&ents[i])
		}
		written += len(batch)
		fresh = fresh[len(batch):]
	}
	mAppended.Add(int64(written))
	gEntries.Set(int64(s.known.Len()))
	return written, nil
}

// repairTornTail runs under the lock before the first write through a
// new WAL handle f. Frames appended after a torn tail would never load
// and the next compaction would truncate them away, so the tail is cut
// back to the clean frame prefix first (ir.CutTornTail, which leaves a
// WAL another process has grown since the scan alone). The WAL is
// scanned here unless a read already did.
func (s *Store) repairTornTail(f *os.File) error {
	if !s.walScanned {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			return err
		}
		_, clean := ir.ScanFrames(b)
		s.walScanned, s.walSize, s.walClean = true, int64(len(b)), int64(clean)
	}
	cut, err := ir.CutTornTail(f, s.walSize, s.walClean)
	if cut {
		s.walSize = s.walClean
	}
	return err
}

// CompactStats describes one compaction.
type CompactStats struct {
	// Entries is the distinct entry count written across the shards.
	Entries int
	// ShardFiles is the number of shard files written.
	ShardFiles int
	// WALBytes is the journal size reclaimed by the truncation.
	WALBytes int64
	// KeptWAL reports that the journal was NOT truncated because it
	// still holds CRC-valid frames this decoder could not parse —
	// likely written by a different version. Truncating would destroy
	// the only copy of their entries; a torn tail (crash debris) never
	// sets this.
	KeptWAL bool
}

// Compact folds the shard files and the WAL into freshly written shard
// files — each marshalled as one canonical picola-ir/v1 container,
// written to a temp file in the store directory and atomically renamed
// into place — then truncates the WAL. An empty WAL leaves nothing to
// fold: Compact then returns zero stats without reading or writing any
// shard. Unreadable inputs are skipped exactly as in Load, except that
// a CRC-valid WAL frame the decoder rejects keeps the journal in place
// (see CompactStats.KeptWAL). A crash mid-compaction is safe at every
// point: the WAL still holds everything not yet renamed, and duplicate
// entries between an old WAL and new shards deduplicate on the next
// load.
func (s *Store) Compact() (CompactStats, error) {
	var st CompactStats
	walPath := filepath.Join(s.dir, walName)
	fi, err := os.Stat(walPath)
	if err != nil && !os.IsNotExist(err) {
		return st, fmt.Errorf("evalstore: %w", err)
	}
	if err != nil || fi.Size() == 0 {
		// Nothing to fold: the shards already hold every entry in
		// canonical form, and rewriting them would reproduce their bytes.
		return st, nil
	}
	entries, ls, err := s.readAll()
	if err != nil {
		return st, err
	}
	byShard := make([][]eval.CacheEntry, storeShards)
	for i := range entries {
		sh := shardOf(&entries[i])
		byShard[sh] = append(byShard[sh], entries[i])
	}
	for i, batch := range byShard {
		if len(batch) == 0 {
			continue
		}
		eval.SortEntries(batch)
		payload, err := ir.Marshal(&ir.File{CacheEntries: batch})
		if err != nil {
			return st, fmt.Errorf("evalstore: shard %d: %w", i, err)
		}
		tmp, err := createTemp(s.dir, shardName(i))
		if err != nil {
			return st, fmt.Errorf("evalstore: %w", err)
		}
		_, werr := tmp.Write(payload)
		cerr := tmp.Close()
		if werr != nil || cerr != nil {
			_ = os.Remove(tmp.Name())
			return st, fmt.Errorf("evalstore: shard %d: write %v, close %v", i, werr, cerr)
		}
		if err := os.Rename(tmp.Name(), filepath.Join(s.dir, shardName(i))); err != nil {
			_ = os.Remove(tmp.Name())
			return st, fmt.Errorf("evalstore: %w", err)
		}
		st.ShardFiles++
		st.Entries += len(batch)
	}
	// Every readable entry is now in a renamed shard. The journal is
	// redundant — unless it holds CRC-valid frames this decoder rejected
	// (a writer or version bug, not crash debris): those entries exist
	// nowhere else, so keep the journal for a future binary to recover.
	if ls.WALBadFrames > 0 {
		st.KeptWAL = true
		mCompacted.Add(int64(st.Entries))
		return st, nil
	}
	if fi, err := os.Stat(walPath); err == nil {
		st.WALBytes = fi.Size()
	}
	if err := s.truncateWAL(walPath); err != nil {
		return st, fmt.Errorf("evalstore: %w", err)
	}
	mCompacted.Add(int64(st.Entries))
	return st, nil
}

// tempSeq numbers the temp files of this process; with the pid it makes
// their names unique among the processes sharing a store.
var tempSeq atomic.Uint64

// createTemp creates a new file in dir to be renamed over name. It uses
// the WAL's mode, 0644 narrowed by the umask (os.CreateTemp would force
// 0600 and leave the shards unreadable to every other user), and
// O_EXCL, so a name left by a crashed process is skipped, never reused.
func createTemp(dir, name string) (*os.File, error) {
	var err error
	for try := 0; try < 100; try++ {
		var f *os.File
		p := filepath.Join(dir, fmt.Sprintf("%s.tmp-%d-%d", name, os.Getpid(), tempSeq.Add(1)))
		f, err = os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if !os.IsExist(err) {
			return f, err
		}
	}
	return nil, err
}

// truncateWAL empties the journal (through the open handle when one
// exists, so subsequent appends keep working) under the lock.
func (s *Store) truncateWAL(walPath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.wal != nil {
		err = s.wal.Truncate(0)
	} else if err = os.Truncate(walPath, 0); os.IsNotExist(err) {
		err = nil
	}
	if err == nil {
		s.walScanned, s.walSize, s.walClean = true, 0, 0
	}
	return err
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
