package mtbdd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/yu-verify/yu/internal/fault"
)

// On-disk snapshot format (little-endian):
//
//	magic    [8]byte  "YUSNAP1\n"
//	count    uint32   number of nodes
//	maxLevel int32    highest tested variable (-1 if all terminals)
//	entries  count × (level int32, valueBits uint64, lo uint32, hi uint32)
//	crc      uint32   crc32(IEEE) over count, maxLevel, and all entries
//
// The CRC trailer turns silent corruption (a flipped bit that happens to
// survive structural validation) into a decode error; the daemon treats
// any decode error as a cold start, never a wrong answer.
//
// The entry order is the children-first order NewSnapshot produced, so a
// decoded snapshot replays through ImportSnapshot exactly like the
// original. Decode validates every structural invariant (children precede
// parents, terminals have no children, levels within maxLevel, finite
// values), so malformed or truncated input yields an error — never a
// panic in a later ImportSnapshot.

var snapshotMagic = [8]byte{'Y', 'U', 'S', 'N', 'A', 'P', '1', '\n'}

// maxSnapshotNodes caps the node count Decode will allocate for. It is
// far above any real snapshot (the seed's heaviest runs peak below 100M
// created nodes across a whole run) and exists so corrupt headers cannot
// demand absurd allocations.
const maxSnapshotNodes = 1 << 28

// Encode writes the snapshot in the binary on-disk format.
func (s *Snapshot) Encode(w io.Writer) error {
	if err := fault.Here("mtbdd.snapshot.encode"); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(s.level)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(s.maxLevel))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	var ent [20]byte
	for i := range s.level {
		binary.LittleEndian.PutUint32(ent[0:4], uint32(s.level[i]))
		binary.LittleEndian.PutUint64(ent[4:12], math.Float64bits(s.value[i]))
		binary.LittleEndian.PutUint32(ent[12:16], s.lo[i])
		binary.LittleEndian.PutUint32(ent[16:20], s.hi[i])
		if _, err := bw.Write(ent[:]); err != nil {
			return err
		}
		sum = crc32.Update(sum, crc32.IEEETable, ent[:])
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeSnapshot reads a snapshot from the binary format, validating all
// structural invariants. Consumers address the decoded snapshot's entries by
// the root positions they stored beside it, as the daemon's STF cache does.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	if err := fault.Here("mtbdd.snapshot.decode"); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("mtbdd: snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("mtbdd: bad snapshot magic %q", magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("mtbdd: snapshot header: %w", err)
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	count := binary.LittleEndian.Uint32(hdr[0:4])
	maxLevel := int32(binary.LittleEndian.Uint32(hdr[4:8]))
	if count > maxSnapshotNodes {
		return nil, fmt.Errorf("mtbdd: snapshot claims %d nodes, limit %d", count, maxSnapshotNodes)
	}
	if maxLevel < -1 || maxLevel == terminalLevel {
		return nil, fmt.Errorf("mtbdd: snapshot maxLevel %d out of range", maxLevel)
	}
	s := &Snapshot{
		level:    make([]int32, 0, count),
		value:    make([]float64, 0, count),
		lo:       make([]uint32, 0, count),
		hi:       make([]uint32, 0, count),
		maxLevel: -1,
	}
	var ent [20]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, ent[:]); err != nil {
			return nil, fmt.Errorf("mtbdd: snapshot truncated at node %d/%d: %w", i, count, err)
		}
		sum = crc32.Update(sum, crc32.IEEETable, ent[:])
		level := int32(binary.LittleEndian.Uint32(ent[0:4]))
		value := math.Float64frombits(binary.LittleEndian.Uint64(ent[4:12]))
		lo := binary.LittleEndian.Uint32(ent[12:16])
		hi := binary.LittleEndian.Uint32(ent[16:20])
		if level == terminalLevel {
			if lo != 0 || hi != 0 {
				return nil, fmt.Errorf("mtbdd: snapshot node %d: terminal with children", i)
			}
			if math.IsNaN(value) {
				return nil, fmt.Errorf("mtbdd: snapshot node %d: NaN terminal", i)
			}
		} else {
			if level < 0 || level > maxLevel {
				return nil, fmt.Errorf("mtbdd: snapshot node %d: level %d outside [0, %d]", i, level, maxLevel)
			}
			if lo >= i || hi >= i {
				return nil, fmt.Errorf("mtbdd: snapshot node %d: child (%d, %d) not children-first", i, lo, hi)
			}
			if lo == hi {
				return nil, fmt.Errorf("mtbdd: snapshot node %d: redundant test (lo == hi)", i)
			}
			// Canonical ordering: a node tests a variable strictly above
			// (numerically below) its children's.
			if cl := s.level[lo]; cl != terminalLevel && cl <= level {
				return nil, fmt.Errorf("mtbdd: snapshot node %d: lo child level %d not below %d", i, cl, level)
			}
			if cl := s.level[hi]; cl != terminalLevel && cl <= level {
				return nil, fmt.Errorf("mtbdd: snapshot node %d: hi child level %d not below %d", i, cl, level)
			}
			if level > s.maxLevel {
				s.maxLevel = level
			}
			value = 0
		}
		s.level = append(s.level, level)
		s.value = append(s.value, value)
		s.lo = append(s.lo, lo)
		s.hi = append(s.hi, hi)
	}
	if s.maxLevel != maxLevel {
		return nil, fmt.Errorf("mtbdd: snapshot header maxLevel %d, computed %d", maxLevel, s.maxLevel)
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("mtbdd: snapshot checksum trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		return nil, fmt.Errorf("mtbdd: snapshot checksum mismatch (frame %08x, computed %08x)", got, sum)
	}
	// A trailing byte means the stream holds more than one snapshot frame
	// or is corrupt; the caller owns framing, so stop exactly at the end
	// of this frame and leave the reader's remainder untouched — except
	// that we cannot un-read bufio's lookahead. Decode therefore reads
	// only its own frame and performs no EOF check.
	return s, nil
}

// MaxLevel returns the highest variable index tested anywhere in the
// snapshot (-1 if the snapshot is all terminals). A destination manager
// must declare at least MaxLevel()+1 variables before ImportSnapshot.
func (s *Snapshot) MaxLevel() int32 { return s.maxLevel }
