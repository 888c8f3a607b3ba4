// Warm-state persistence: the STF cache (through the mtbdd.Snapshot
// codec) is written to cfg.StatePath so a restarted daemon resumes warm.
// Writes are crash-safe — tmp file, fsync, atomic rename, directory
// fsync — and every YUWARM3 entry is a CRC-framed block, so a torn or
// bit-flipped file is detected, logged, and ignored. Loading is
// best-effort: corrupt or stale state starts cold — warm state is a
// latency aid, never a correctness input (content-hash keys make a wrong
// entry unreachable, and Lookup shape-checks survivors). A file in an
// earlier frame holds keys no run derives any more — YUWARM1, the
// derivation that hashed every router's rows once per class, and YUWARM2,
// keys that folded a structural hash of every IS-IS guard where YUWARM3
// keys carry the topology key: it fails the magic check, starts the daemon
// cold like any other unreadable file, and the next SaveState replaces it.
package serve

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/fault"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

const (
	warmMagic      = "YUWARM3\n"
	warmCacheFile  = "stfcache.bin"
	maxWarmEntries = 1 << 20
	maxWarmLinks   = 1 << 24
	maxWarmIters   = 1 << 24
	maxWarmFrame   = 1 << 28
)

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable — without this, a crash after rename can resurrect the old
// file (or nothing) on some filesystems.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// atomicWrite writes a file crash-safely: tmp file in the same
// directory, fsync, close, rename over path, fsync the directory.
func atomicWrite(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fault.Here("serve.persist.rename")
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// SaveState persists the warm cache to cfg.StatePath.
// No-op (nil) when persistence is disabled.
func (s *Server) SaveState() error {
	if s.cfg.StatePath == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := fault.Here("serve.persist.begin"); err != nil {
		return err
	}
	if err := os.MkdirAll(s.cfg.StatePath, 0o755); err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.cfg.StatePath, warmCacheFile), s.store.encode)
}

// loadState restores persisted warm state. Never fails the caller.
func (s *Server) loadState() {
	path := filepath.Join(s.cfg.StatePath, warmCacheFile)
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Printf("yud: warm cache %s: %v; starting cold", path, err)
		}
		return
	}
	defer f.Close()
	if err := s.store.decode(bufio.NewReader(f), s.cfg.CacheLimit); err != nil {
		log.Printf("yud: warm cache %s: %v; starting cold", path, err)
		s.store.mu.Lock()
		s.store.reset(nil)
		s.store.mu.Unlock()
	}
}

// encode writes the store: magic, entry count, then one CRC-framed block
// per entry (u32 length | payload | u32 crc32), the payload holding the
// key, STF shape, and the embedded MTBDD snapshot frame. Keys are
// written in sorted order so equal stores serialize identically. An entry's
// snapshot is re-derived from its list (subset): the one
// sealing its STF alone, entry for entry, as the frame has always held.
func (st *stfStore) encode(w io.Writer) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := io.WriteString(w, warmMagic); err != nil {
		return err
	}
	keys := make([]cacheKey, 0, len(st.cur)+len(st.prev))
	for _, gen := range []map[cacheKey]warmEntry{st.prev, st.cur} {
		for k := range gen {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y cacheKey) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	if err := binary.Write(w, binary.LittleEndian, uint32(len(keys))); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, k := range keys {
		buf.Reset()
		e, ok := st.cur[k]
		if !ok {
			e = st.prev[k]
		}
		if err := encodeEntry(&buf, k, subset(e.l, []int{e.i})); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(buf.Len())); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(buf.Bytes())); err != nil {
			return err
		}
	}
	return nil
}

// encodeEntry writes one entry's payload: the key, the STF's iteration count
// and Delivered/Dropped/InFlight root positions, its links (ascending) with
// their root positions, then the snapshot frame.
func encodeEntry(w io.Writer, k cacheKey, e *core.SealedSTFs) error {
	if err := binary.Write(w, binary.LittleEndian, k); err != nil {
		return err
	}
	s := e.STFs[0]
	fixed := []uint32{uint32(s.Iterations), s.Roots[0], s.Roots[1], s.Roots[2], uint32(len(s.Links))}
	if err := binary.Write(w, binary.LittleEndian, fixed); err != nil {
		return err
	}
	for i, l := range s.Links {
		if err := binary.Write(w, binary.LittleEndian, int32(l)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, s.Roots[3+i]); err != nil {
			return err
		}
	}
	return e.Snap.Encode(w)
}

// decode replaces the store's contents from an encode stream: each
// entry's frame checksum is verified before its payload is parsed, and
// every count and root index is validated before an entry is accepted.
func (st *stfStore) decode(r io.Reader, limit int) error {
	magic := make([]byte, len(warmMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("magic: %w", err)
	}
	if string(magic) != warmMagic {
		return fmt.Errorf("bad magic %q", magic)
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("count: %w", err)
	}
	if count > maxWarmEntries {
		return fmt.Errorf("entry count %d exceeds limit", count)
	}
	var entries []storeEntry
	for i := uint32(0); i < count; i++ {
		var flen uint32
		if err := binary.Read(r, binary.LittleEndian, &flen); err != nil {
			return fmt.Errorf("entry %d frame length: %w", i, err)
		}
		if flen > maxWarmFrame {
			return fmt.Errorf("entry %d: frame length %d exceeds limit", i, flen)
		}
		payload, err := readFrame(r, int(flen))
		if err != nil {
			return fmt.Errorf("entry %d frame: %w", i, err)
		}
		var sum uint32
		if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
			return fmt.Errorf("entry %d checksum: %w", i, err)
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return fmt.Errorf("entry %d: checksum mismatch (frame %08x, computed %08x)", i, sum, got)
		}
		k, l, err := decodeEntry(bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if len(entries) < limit {
			// Only what the STF reaches: a frame may carry entries it does not.
			l = subset(l, []int{0})
			entries = append(entries, storeEntry{k, warmEntry{l: l, size: l.Snap.Len()}})
		}
	}
	st.mu.Lock()
	st.reset(entries)
	st.mu.Unlock()
	return nil
}

// readFrame reads an n-byte frame, allocating as its bytes arrive rather
// than for the length its header claims.
func readFrame(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, 64<<10))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for len(buf) < n {
		have := len(buf)
		buf = append(buf, make([]byte, min(n-have, have))...)
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodeEntry parses one entry's payload, r holding exactly its bytes.
func decodeEntry(r *bytes.Reader) (cacheKey, *core.SealedSTFs, error) {
	var k cacheKey
	if err := binary.Read(r, binary.LittleEndian, &k); err != nil {
		return k, nil, fmt.Errorf("key: %w", err)
	}
	var fixed [5]uint32
	if err := binary.Read(r, binary.LittleEndian, &fixed); err != nil {
		return k, nil, fmt.Errorf("header: %w", err)
	}
	s := core.SealedSTF{Iterations: int(fixed[0])}
	nlinks := fixed[4]
	if s.Iterations < 0 || s.Iterations > maxWarmIters {
		return k, nil, fmt.Errorf("implausible iteration count %d", s.Iterations)
	}
	if nlinks > maxWarmLinks {
		return k, nil, fmt.Errorf("link count %d exceeds limit", nlinks)
	}
	// Room for the links the payload still holds (8 bytes each), not for the
	// count its header claims.
	room := min(int(nlinks), r.Len()/8)
	s.Links = make([]topo.DirLinkID, 0, room)
	s.Roots = append(make([]uint32, 0, 3+room), fixed[1:4]...)
	for j := uint32(0); j < nlinks; j++ {
		var link [2]uint32
		if err := binary.Read(r, binary.LittleEndian, &link); err != nil {
			return k, nil, fmt.Errorf("link %d: %w", j, err)
		}
		l := int32(link[0])
		if l < 0 {
			return k, nil, fmt.Errorf("link %d: negative id", j)
		}
		if j > 0 && topo.DirLinkID(l) <= s.Links[j-1] {
			return k, nil, fmt.Errorf("link %d: ids not ascending", j)
		}
		s.Links = append(s.Links, topo.DirLinkID(l))
		s.Roots = append(s.Roots, link[1])
	}
	snap, err := mtbdd.DecodeSnapshot(r)
	if err != nil {
		return k, nil, fmt.Errorf("snapshot: %w", err)
	}
	for j, root := range s.Roots {
		if root >= uint32(snap.Len()) {
			return k, nil, fmt.Errorf("root %d: index %d out of range", j, root)
		}
	}
	return k, &core.SealedSTFs{Snap: snap, STFs: []core.SealedSTF{s}}, nil
}
