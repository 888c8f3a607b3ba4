// Warm-state persistence: the STF cache (through the mtbdd.Snapshot
// codec) is written to cfg.StatePath so a restarted daemon resumes warm.
// Writes are crash-safe — tmp file, fsync, atomic rename, directory
// fsync — and every YUWARM2 entry is a CRC-framed block, so a torn or
// bit-flipped file is detected, logged, and ignored. Loading is
// best-effort: corrupt or stale state starts cold — warm state is a
// latency aid, never a correctness input (content-hash keys make a wrong
// entry unreachable, and Lookup shape-checks survivors). A YUWARM1 file —
// the frame of the key derivation that hashed every router's rows once per
// class — holds keys no run derives any more: it fails the magic check,
// starts the daemon cold like any other unreadable file, and the next
// SaveState replaces it.
package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"

	"github.com/yu-verify/yu/internal/core"
	"github.com/yu-verify/yu/internal/fault"
	"github.com/yu-verify/yu/internal/mtbdd"
	"github.com/yu-verify/yu/internal/topo"
)

const (
	warmMagic      = "YUWARM2\n"
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
		s.store.entries = make(map[cacheKey]*core.SealedSTFs)
		s.store.mu.Unlock()
	}
}

// encode writes the store: magic, entry count, then one CRC-framed block
// per entry (u32 length | payload | u32 crc32), the payload holding the
// key, STF shape, and the embedded MTBDD snapshot frame. Keys are
// written in sorted order so equal stores serialize identically.
func (st *stfStore) encode(w io.Writer) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := io.WriteString(w, warmMagic); err != nil {
		return err
	}
	keys := make([]cacheKey, 0, len(st.entries))
	for k := range st.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	if err := binary.Write(w, binary.LittleEndian, uint32(len(keys))); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, k := range keys {
		buf.Reset()
		if err := encodeEntry(&buf, k, st.entries[k]); err != nil {
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
	if err := binary.Write(w, binary.LittleEndian, []uint64{k.a, k.b}); err != nil {
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
	entries := make(map[cacheKey]*core.SealedSTFs, count)
	for i := uint32(0); i < count; i++ {
		var flen uint32
		if err := binary.Read(r, binary.LittleEndian, &flen); err != nil {
			return fmt.Errorf("entry %d frame length: %w", i, err)
		}
		if flen > maxWarmFrame {
			return fmt.Errorf("entry %d: frame length %d exceeds limit", i, flen)
		}
		payload := make([]byte, flen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("entry %d frame: %w", i, err)
		}
		var sum uint32
		if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
			return fmt.Errorf("entry %d checksum: %w", i, err)
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return fmt.Errorf("entry %d: checksum mismatch (frame %08x, computed %08x)", i, sum, got)
		}
		k, e, err := decodeEntry(bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if len(entries) < limit {
			entries[k] = e
		}
	}
	st.mu.Lock()
	st.entries = entries
	st.mu.Unlock()
	return nil
}

func decodeEntry(r io.Reader) (cacheKey, *core.SealedSTFs, error) {
	var k cacheKey
	if err := binary.Read(r, binary.LittleEndian, &k.a); err != nil {
		return k, nil, fmt.Errorf("key: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &k.b); err != nil {
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
	s.Links = make([]topo.DirLinkID, nlinks)
	s.Roots = make([]uint32, 3+nlinks)
	copy(s.Roots, fixed[1:4])
	for j := uint32(0); j < nlinks; j++ {
		var l int32
		if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
			return k, nil, fmt.Errorf("link %d: %w", j, err)
		}
		if l < 0 {
			return k, nil, fmt.Errorf("link %d: negative id", j)
		}
		if j > 0 && topo.DirLinkID(l) <= s.Links[j-1] {
			return k, nil, fmt.Errorf("link %d: ids not ascending", j)
		}
		s.Links[j] = topo.DirLinkID(l)
		if err := binary.Read(r, binary.LittleEndian, &s.Roots[3+j]); err != nil {
			return k, nil, fmt.Errorf("link root %d: %w", j, err)
		}
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
