package ir

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"encoding/binary"
)

// Journal framing. Batch checkpoints and the on-disk cache store append
// complete picola-ir/v1 containers to a single growing file; the frame
// layer makes those appends crash-safe to read back. One frame is
//
//	offset 0  length u32  payload byte count
//	offset 4  crc    u32  CRC-32 (IEEE) of the payload
//	offset 8  payload
//
// all little-endian. A reader walks frames from the start and stops at
// the first torn or corrupt one (short header, short payload, CRC
// mismatch, or an over-limit length): an append-only file damaged by a
// crash is damaged at its tail, so everything before the tear is intact
// and everything after it is unrecoverable noise. ScanFrames therefore
// returns the clean prefix plus how many bytes it covers, and never an
// error — journal corruption is a data-loss accounting problem for the
// caller, not a fatal condition.

// MaxFrameBytes bounds one frame's payload; a corrupt length field past
// it reads as a torn frame instead of a huge allocation.
const MaxFrameBytes = 1 << 28

// frameHeaderBytes is the fixed frame header size (length + CRC).
const frameHeaderBytes = 8

// AppendFrame appends one framed payload to dst and returns the
// extended slice.
func AppendFrame(dst []byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// WriteFrame writes one framed payload to w in a single Write call, so
// an O_APPEND writer emits each frame atomically with respect to other
// appenders on the same file.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("%w: frame payload %d bytes exceeds limit %d",
			ErrCorrupt, len(payload), MaxFrameBytes)
	}
	buf := make([]byte, 0, frameHeaderBytes+len(payload))
	_, err := w.Write(AppendFrame(buf, payload))
	return err
}

// ScanFrames walks b from the start and returns every complete, valid
// frame payload in order, plus the number of bytes the clean prefix
// covers. clean == len(b) means the journal parsed fully; anything less
// marks a torn or corrupt tail starting at offset clean, which the
// caller should truncate away (or recompute) rather than trust. The
// returned payloads alias b.
func ScanFrames(b []byte) (payloads [][]byte, clean int) {
	off := 0
	for {
		if len(b)-off < frameHeaderBytes {
			return payloads, off
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if n > MaxFrameBytes || len(b)-off-frameHeaderBytes < n {
			return payloads, off
		}
		p := b[off+frameHeaderBytes : off+frameHeaderBytes+n]
		if crc32.ChecksumIEEE(p) != crc {
			return payloads, off
		}
		payloads = append(payloads, p)
		off += frameHeaderBytes + n
	}
}

// CutTornTail truncates the frame file f back to its clean prefix after
// a scan that saw size bytes of which ScanFrames found the first clean
// intact. Frames appended after a torn tail would never be read back, so
// an appender cuts the tail before its first write. The cut is made only
// while f is still size bytes long: a frame another process is appending
// right now is never cut. It reports whether f was truncated.
func CutTornTail(f *os.File, size, clean int64) (bool, error) {
	if clean == size {
		return false, nil
	}
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	if fi.Size() != size {
		return false, nil
	}
	if err := f.Truncate(clean); err != nil {
		return false, err
	}
	return true, nil
}
