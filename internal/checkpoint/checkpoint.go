// Package checkpoint persists the miner's canonical commit stream so a
// killed run can be resumed bit-identically. It stores two files in a
// directory:
//
//	snapshot.ck — the latest atomic snapshot of miner state (temp file +
//	              fsync + rename, so it is either the old or the new version,
//	              never a torn mix), written every K commits;
//	journal.ck  — an append-only journal of one record per committed unit
//	              since that snapshot, reset (atomically, via the same
//	              temp+rename discipline) each time a snapshot lands.
//
// Both files share a length-prefixed, CRC-framed record format:
//
//	frame := uint32(len(payload)) LE | uint32(crc32-IEEE(payload)) LE | payload
//
// A journal whose final frame is incomplete (a torn write from a crash
// mid-append) is valid up to the last complete frame; a *complete* frame
// whose CRC does not match, a bad magic, or out-of-order record indices are
// corruption (ErrCorrupt), and an unknown format version is ErrVersion.
// Payloads are opaque JSON supplied by the miner; this package only cares
// about framing, durability and ordering.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Typed errors. Callers match with errors.Is.
var (
	// ErrNoCheckpoint reports that the directory holds no checkpoint at all.
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
	// ErrCorrupt reports unreadable checkpoint data: bad magic, a complete
	// frame with a CRC mismatch, or inconsistent record ordering.
	ErrCorrupt = errors.New("checkpoint: corrupt data")
	// ErrVersion reports a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrExists reports an attempt to create a fresh checkpoint in a
	// directory that already holds one.
	ErrExists = errors.New("checkpoint: checkpoint already exists")
)

const (
	snapshotMagic = "MISN"
	journalMagic  = "MIJL"
	version       = 1

	snapshotFile = "snapshot.ck"
	journalFile  = "journal.ck"

	// maxFrame bounds a single frame payload; anything larger is corruption,
	// not a record we ever wrote.
	maxFrame = 1 << 28

	preambleLen = 4 + 4 // magic + uint32 version
	frameHdrLen = 4 + 4 // uint32 length + uint32 crc
)

// Meta identifies the run a checkpoint belongs to. Fingerprint hashes the
// full mining configuration (excluding worker count, which is a proven
// invariant); Every is the snapshot cadence in commits.
type Meta struct {
	Fingerprint string `json:"fingerprint"`
	Every       int64  `json:"every"`
}

// Snapshot is a decoded snapshot file: miner state as of commit Index.
type Snapshot struct {
	Meta    Meta            `json:"meta"`
	Index   int64           `json:"index"`
	Payload json.RawMessage `json:"payload"`
}

// Record is one committed unit in the journal. Index is the total commit
// index (snapshot base + position in the journal tail).
type Record struct {
	Index   int64           `json:"index"`
	Payload json.RawMessage `json:"payload"`
}

// journalHeader is the first frame of a journal file.
type journalHeader struct {
	Meta Meta  `json:"meta"`
	Base int64 `json:"base"`
}

// JournalInfo is a decoded journal: the header plus every complete,
// CRC-valid record. ValidLen is the byte offset just past the last valid
// frame (a torn tail beyond it is discarded on resume). Headered is false
// when the file is empty or holds only a torn preamble/header — a journal
// that was being created when the process died.
type JournalInfo struct {
	Meta     Meta
	Base     int64
	Records  []Record
	ValidLen int64
	Headered bool
}

// errTorn is an internal sentinel: the data ends mid-frame. Torn tails are
// accepted (the crash happened mid-append); callers translate as needed.
var errTorn = errors.New("checkpoint: torn frame")

func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// readFrame decodes one frame at off. It returns errTorn when the data ends
// before the frame does, and ErrCorrupt for oversize lengths or CRC
// mismatches on a complete frame.
func readFrame(data []byte, off int) (payload []byte, n int, err error) {
	if off+frameHdrLen > len(data) {
		return nil, 0, errTorn
	}
	length := binary.LittleEndian.Uint32(data[off : off+4])
	want := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if length > maxFrame {
		return nil, 0, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, length)
	}
	end := off + frameHdrLen + int(length)
	if end > len(data) {
		return nil, 0, errTorn
	}
	payload = data[off+frameHdrLen : end]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, fmt.Errorf("%w: frame CRC mismatch at offset %d", ErrCorrupt, off)
	}
	return payload, end - off, nil
}

func checkPreamble(data []byte, magic string) error {
	if len(data) < preambleLen {
		return errTorn
	}
	if string(data[:4]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return fmt.Errorf("%w: got version %d, want %d", ErrVersion, v, version)
	}
	return nil
}

func encodePreamble(magic string) []byte {
	buf := make([]byte, 0, preambleLen)
	buf = append(buf, magic...)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], version)
	return append(buf, v[:]...)
}

// EncodeSnapshot renders a snapshot file image.
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return appendFrame(encodePreamble(snapshotMagic), body), nil
}

// DecodeSnapshot parses a snapshot file image. Snapshots are written
// atomically, so any truncation or mismatch is corruption.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := checkPreamble(data, snapshotMagic); err != nil {
		if errors.Is(err, errTorn) {
			return s, fmt.Errorf("%w: snapshot too short", ErrCorrupt)
		}
		return s, err
	}
	body, n, err := readFrame(data, preambleLen)
	if err != nil {
		if errors.Is(err, errTorn) {
			return s, fmt.Errorf("%w: snapshot truncated", ErrCorrupt)
		}
		return s, err
	}
	if preambleLen+n != len(data) {
		return s, fmt.Errorf("%w: trailing bytes after snapshot frame", ErrCorrupt)
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return s, fmt.Errorf("%w: snapshot envelope: %v", ErrCorrupt, err)
	}
	return s, nil
}

// DecodeJournal parses a journal file image, accepting a torn final frame
// (and a torn preamble/header, which yields Headered=false). Record indices
// must ascend contiguously from Base+1.
func DecodeJournal(data []byte) (JournalInfo, error) {
	var info JournalInfo
	if err := checkPreamble(data, journalMagic); err != nil {
		if errors.Is(err, errTorn) {
			return info, nil // empty or torn preamble: journal never finished creation
		}
		return info, err
	}
	hdrBody, n, err := readFrame(data, preambleLen)
	if err != nil {
		if errors.Is(err, errTorn) {
			return info, nil
		}
		return info, err
	}
	var hdr journalHeader
	if err := json.Unmarshal(hdrBody, &hdr); err != nil {
		return info, fmt.Errorf("%w: journal header: %v", ErrCorrupt, err)
	}
	info.Meta = hdr.Meta
	info.Base = hdr.Base
	info.Headered = true
	off := preambleLen + n
	info.ValidLen = int64(off)
	next := hdr.Base + 1
	for off < len(data) {
		body, n, err := readFrame(data, off)
		if err != nil {
			if errors.Is(err, errTorn) {
				return info, nil // torn tail: accept everything before it
			}
			return info, err
		}
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			return info, fmt.Errorf("%w: journal record at offset %d: %v", ErrCorrupt, off, err)
		}
		if rec.Index != next {
			return info, fmt.Errorf("%w: journal record index %d, want %d", ErrCorrupt, rec.Index, next)
		}
		next++
		info.Records = append(info.Records, rec)
		off += n
		info.ValidLen = int64(off)
	}
	return info, nil
}

// Store is an open checkpoint directory: the journal file handle plus the
// metadata every write is stamped with.
type Store struct {
	dir  string
	meta Meta
	jf   *os.File
}

// LoadResult is a reconciled checkpoint: the latest snapshot (nil when the
// run was killed before the first snapshot landed), the journal tail of
// commits after it, and the store re-opened for appending.
type LoadResult struct {
	Meta     Meta
	Snapshot *Snapshot
	Tail     []Record
	Store    *Store
}

// Exists reports whether dir holds any checkpoint data (a snapshot or a
// journal file, valid or torn). It never validates — Load does — so a
// scheduler can use it to pick resume-vs-fresh for a job whose process may
// have died before the first durable byte landed.
func Exists(dir string) bool {
	for _, name := range []string{snapshotFile, journalFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// Create initialises a fresh checkpoint in dir. It refuses (ErrExists) to
// overwrite an existing checkpoint so a stale -checkpoint flag cannot
// silently destroy a resumable run.
func Create(dir string, meta Meta) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	for _, name := range []string{snapshotFile, journalFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("%w: %s in %s", ErrExists, name, dir)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	st := &Store{dir: dir, meta: meta}
	if err := st.resetJournal(0); err != nil {
		return nil, err
	}
	return st, nil
}

// Load opens an existing checkpoint directory and reconciles the snapshot
// with the journal. A journal based before the snapshot index is the trace
// of a crash between the snapshot rename and the journal reset; its records
// are all covered by the snapshot and are discarded (any record *beyond* the
// snapshot in that situation is corruption — the dispatcher never commits
// past an unfinished snapshot write).
func Load(dir string) (*LoadResult, error) {
	snapData, snapErr := os.ReadFile(filepath.Join(dir, snapshotFile))
	if snapErr != nil && !errors.Is(snapErr, os.ErrNotExist) {
		return nil, snapErr
	}
	jData, jErr := os.ReadFile(filepath.Join(dir, journalFile))
	if jErr != nil && !errors.Is(jErr, os.ErrNotExist) {
		return nil, jErr
	}
	hasSnap := snapErr == nil

	var info JournalInfo
	if jErr == nil {
		var err error
		if info, err = DecodeJournal(jData); err != nil {
			return nil, err
		}
	}

	res := &LoadResult{}
	if hasSnap {
		snap, err := DecodeSnapshot(snapData)
		if err != nil {
			return nil, err
		}
		res.Snapshot = &snap
		res.Meta = snap.Meta
	}

	switch {
	case !hasSnap && !info.Headered:
		return nil, fmt.Errorf("%w: directory %s", ErrNoCheckpoint, dir)
	case !hasSnap:
		// Genesis resume: killed before the first snapshot.
		if info.Base != 0 {
			return nil, fmt.Errorf("%w: journal base %d with no snapshot", ErrCorrupt, info.Base)
		}
		res.Meta = info.Meta
		res.Tail = info.Records
	case !info.Headered:
		// Journal reset never completed; the snapshot alone is the state.
	case info.Base == res.Snapshot.Index:
		if info.Meta.Fingerprint != res.Meta.Fingerprint {
			return nil, fmt.Errorf("%w: journal and snapshot fingerprints differ", ErrCorrupt)
		}
		res.Tail = info.Records
	case info.Base < res.Snapshot.Index:
		// Crash between snapshot rename and journal reset: every journal
		// record must already be covered by the snapshot.
		if last := info.Base + int64(len(info.Records)); last > res.Snapshot.Index {
			return nil, fmt.Errorf("%w: journal reaches commit %d past snapshot %d",
				ErrCorrupt, last, res.Snapshot.Index)
		}
		info.Headered = false // force a journal reset below
	default:
		return nil, fmt.Errorf("%w: journal base %d past snapshot %d",
			ErrCorrupt, info.Base, res.Snapshot.Index)
	}

	st := &Store{dir: dir, meta: res.Meta}
	if !info.Headered || len(res.Tail) < len(info.Records) {
		base := int64(0)
		if res.Snapshot != nil {
			base = res.Snapshot.Index
		}
		if err := st.resetJournal(base); err != nil {
			return nil, err
		}
	} else {
		// Re-open the journal for appending, discarding any torn tail first.
		f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_RDWR, 0o666)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(info.ValidLen); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, err
		}
		st.jf = f
	}
	res.Store = st
	return res, nil
}

// Append writes one commit record to the journal. Records are not
// individually fsynced: an OS-level crash may lose the most recent commits
// (resume then simply re-mines them identically), but a process crash never
// loses writes that reached the page cache.
func (st *Store) Append(rec Record) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = st.jf.Write(appendFrame(nil, body))
	return err
}

// WriteSnapshot atomically persists a snapshot at the given commit index
// (temp file, fsync, rename, directory sync) and then resets the journal to
// an empty file based at that index using the same discipline.
func (st *Store) WriteSnapshot(index int64, payload json.RawMessage) error {
	data, err := EncodeSnapshot(Snapshot{Meta: st.meta, Index: index, Payload: payload})
	if err != nil {
		return err
	}
	if err := AtomicWrite(st.dir, snapshotFile, data, nil); err != nil {
		return err
	}
	return st.resetJournal(index)
}

// resetJournal atomically replaces the journal with an empty one based at
// the given commit index, keeping the new file open for appends.
func (st *Store) resetJournal(base int64) error {
	hdr, err := json.Marshal(journalHeader{Meta: st.meta, Base: base})
	if err != nil {
		return err
	}
	data := appendFrame(encodePreamble(journalMagic), hdr)
	var keep *os.File
	if err := AtomicWrite(st.dir, journalFile, data, &keep); err != nil {
		return err
	}
	if st.jf != nil {
		st.jf.Close()
	}
	st.jf = keep
	return nil
}

// AtomicWrite writes name under dir via temp file + fsync + rename + dir
// sync, so a kill -9 leaves either the old file, the new file, or a stray
// temp file, never a half-written one. When keep is non-nil the (renamed)
// file handle is returned through it, positioned at end of file, instead of
// being closed. The daemon's job records are written through it too.
func AtomicWrite(dir, name string, data []byte, keep **os.File) error {
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if _, err := f.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		cleanup()
		return err
	}
	if keep != nil {
		*keep = f
	} else if err := f.Close(); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close flushes and closes the journal.
func (st *Store) Close() error {
	if st.jf == nil {
		return nil
	}
	err := st.jf.Sync()
	if cerr := st.jf.Close(); err == nil {
		err = cerr
	}
	st.jf = nil
	return err
}
