package mtbdd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// TestSnapshotCodecRoundTrip pins the warm-state contract: encoding a
// snapshot and decoding it back replays to the identical canonical nodes
// the original snapshot replays to.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	_, roots := buildSnapshotFixtures(t)
	snap, _ := NewSnapshot(roots)

	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != snap.Len() || dec.MaxLevel() != snap.MaxLevel() {
		t.Fatalf("decoded len/maxLevel %d/%d, want %d/%d",
			dec.Len(), dec.MaxLevel(), snap.Len(), snap.MaxLevel())
	}

	dst1, dst2 := New(), New()
	for i := 0; i < 8; i++ {
		dst1.AddVar("x")
		dst2.AddVar("x")
	}
	t1 := dst1.ImportSnapshot(snap)
	t2 := dst1.ImportSnapshot(dec)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("entry %d: original replays to %p, decoded to %p", i, t1[i], t2[i])
		}
	}
	// A second encode of the decoded snapshot is byte-identical: the
	// codec is canonical, so persisted state re-saves stably.
	var buf2 bytes.Buffer
	if err := dec.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoding a decoded snapshot changed the bytes")
	}
	// And it still replays into a fresh manager equivalently.
	t3 := dst2.ImportSnapshot(dec)
	for i := range t1 {
		if (t1[i].IsTerminal() != t3[i].IsTerminal()) || t1[i].Level != t3[i].Level {
			t.Fatalf("entry %d: cross-manager replay structure diverged", i)
		}
	}
}

// TestSnapshotCodecEmpty round-trips the empty snapshot (no roots).
func TestSnapshotCodecEmpty(t *testing.T) {
	snap, _ := NewSnapshot(nil)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != 0 || dec.MaxLevel() != -1 {
		t.Fatalf("empty snapshot decoded to len %d maxLevel %d", dec.Len(), dec.MaxLevel())
	}
	m := New()
	if table := m.ImportSnapshot(dec); len(table) != 0 {
		t.Fatalf("empty replay produced %d nodes", len(table))
	}
}

// TestSnapshotCodecRejectsMalformed feeds corruptions of a valid encoding
// to the decoder: every one must fail with an error, never a panic, and
// never decode to a snapshot that later panics in ImportSnapshot.
func TestSnapshotCodecRejectsMalformed(t *testing.T) {
	_, roots := buildSnapshotFixtures(t)
	snap, _ := NewSnapshot(roots)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	corrupt := map[string][]byte{
		"empty":            {},
		"bad-magic":        append([]byte("NOTASNAP"), valid[8:]...),
		"truncated-header": valid[:12],
		"truncated-body":   valid[:len(valid)-7],
		"huge-count": func() []byte {
			b := append([]byte(nil), valid...)
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
			return b
		}(),
	}
	// Flip every byte of the first entry region one at a time; most flips
	// break an invariant (self/forward references, level bounds, header
	// mismatch). Whatever still decodes must import cleanly.
	for i := 16; i < len(valid) && i < 16+20*4; i++ {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x41
		corrupt["flip-"+string(rune('a'+i%26))+string(rune('0'+i/26))] = b
	}

	for name, data := range corrupt {
		dec, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			continue
		}
		if name == "empty" || name == "bad-magic" || name == "truncated-header" ||
			name == "truncated-body" || name == "huge-count" {
			t.Errorf("%s: decoder accepted malformed input", name)
			continue
		}
		// A surviving bit flip (e.g. inside a terminal value) must still
		// be safe to replay into a sufficiently wide manager.
		m := New()
		for v := int32(0); v <= dec.MaxLevel(); v++ {
			m.AddVar("x")
		}
		m.ImportSnapshot(dec)
	}
}

// TestHasherStructuralEquality pins the Hasher contract: equal functions
// across managers hash equal, different functions hash apart, and
// memoization returns stable values.
func TestHasherStructuralEquality(t *testing.T) {
	m1, roots1 := buildSnapshotFixtures(t)
	_, roots2 := buildSnapshotFixtures(t)

	h1, h2 := NewHasher(), NewHasher()
	for i := range roots1 {
		a, b := h1.Hash(roots1[i]), h2.Hash(roots2[i])
		if a != b {
			t.Fatalf("root %d: same function hashed %x vs %x across managers", i, a, b)
		}
		if again := h1.Hash(roots1[i]); again != a {
			t.Fatalf("root %d: memoized hash unstable (%x vs %x)", i, a, again)
		}
	}
	seen := make(map[uint64]int)
	for i, r := range roots1 {
		hv := h1.Hash(r)
		if j, dup := seen[hv]; dup && roots1[j] != r {
			t.Fatalf("distinct roots %d and %d collide at %x", j, i, hv)
		}
		seen[hv] = i
	}
	if h1.Hash(nil) != 0 {
		t.Fatal("nil hash not 0")
	}
	if h1.Hash(m1.Zero()) == h1.Hash(m1.One()) {
		t.Fatal("zero and one terminals collide")
	}
}

// FuzzSnapshotCodec drives arbitrary bytes through the decoder: it must
// never panic, and anything it accepts must re-encode canonically and
// replay into a fresh manager without panicking.
func FuzzSnapshotCodec(f *testing.F) {
	m := New()
	for i := 0; i < 4; i++ {
		m.AddVar("x")
	}
	g := m.Add(m.Mul(m.Var(0), m.Const(0.25)), m.ITE(m.Var(2), m.Var(3), m.Const(2)))
	snap, _ := NewSnapshot([]*Node{g, m.Zero()})
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("YUSNAP1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := dec.Encode(&out); err != nil {
			t.Fatalf("accepted snapshot failed to encode: %v", err)
		}
		dec2, err := DecodeSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if dec2.Len() != dec.Len() || dec2.MaxLevel() != dec.MaxLevel() {
			t.Fatal("re-decode changed shape")
		}
		dst := New()
		for v := int32(0); v <= dec.MaxLevel(); v++ {
			dst.AddVar("x")
		}
		table := dst.ImportSnapshot(dec)
		if len(table) != dec.Len() {
			t.Fatalf("replay table %d entries for %d nodes", len(table), dec.Len())
		}
	})
}

// TestSnapshotEncodingUnchanged pins the bytes of a fixed graph's encoding.
// An internal node's Value field carries its all-alive value in memory; the
// format keeps writing 0 there, so snapshots on disk (the daemon's warm
// state) stay byte-identical to those written before the field was used.
func TestSnapshotEncodingUnchanged(t *testing.T) {
	m := newMgr(t, 10)
	snap, _ := NewSnapshot(kernelResults(m, 29, 10))
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "f373d97570aecff7005946bc3ad173acd1211420387c9e62f09d4eb7d08149fc" // recorded at 8005914
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("encoding of %d nodes has sha256 %s, want %s", snap.Len(), got, want)
	}
}

// TestDecodeAllocatesForPresentBytes: a header claiming the most nodes the
// format allows, followed by no entries, is an error that allocated for the
// bytes present, not for the count claimed — from a reader whose length is
// known and from one whose length is not.
func TestDecodeAllocatesForPresentBytes(t *testing.T) {
	var frame bytes.Buffer
	frame.Write(snapshotMagic[:])
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxSnapshotNodes)
	binary.LittleEndian.PutUint32(hdr[4:8], 3)
	frame.Write(hdr[:])
	for _, r := range []struct {
		name string
		r    func() io.Reader
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(frame.Bytes()) }},
		{"plain reader", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(frame.Bytes())) }},
	} {
		in := r.r()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSnapshot(in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a frame with no entries decoded", r.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("%s: decoding an empty body allocated %d bytes", r.name, n)
		}
	}
}
