// White-box tests of the warm-state decoder: it allocates for the bytes a
// file holds, never for the sizes its headers claim, and whatever it accepts
// it writes back and reads again to the same entries.
package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/yu-verify/yu/internal/obs"
)

// allocated is how many bytes run allocated.
func allocated(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmDecodeAllocatesForPresentBytes: a store header claiming the most
// entries and an entry frame claiming the longest payload, or an entry
// claiming the most links, followed by nothing, are errors that allocated
// under 1 MiB.
func TestWarmDecodeAllocatesForPresentBytes(t *testing.T) {
	var store bytes.Buffer
	store.WriteString(warmMagic)
	binary.Write(&store, binary.LittleEndian, []uint32{maxWarmEntries, maxWarmFrame})

	var entry bytes.Buffer
	binary.Write(&entry, binary.LittleEndian, cacheKey{1, 2})
	binary.Write(&entry, binary.LittleEndian, []uint32{0, 0, 0, 0, maxWarmLinks})

	var framed bytes.Buffer // the entry, as the one entry of a store
	framed.WriteString(warmMagic)
	binary.Write(&framed, binary.LittleEndian, []uint32{1, uint32(entry.Len())})
	framed.Write(entry.Bytes())
	binary.Write(&framed, binary.LittleEndian, crc32.ChecksumIEEE(entry.Bytes()))

	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"store", func() error {
			return newSTFStore(4096, obs.New().Counter("evictions")).decode(bytes.NewReader(store.Bytes()), 4096)
		}},
		{"entry", func() error {
			_, _, err := decodeEntry(bytes.NewReader(entry.Bytes()))
			return err
		}},
		{"framed entry", func() error {
			return newSTFStore(4096, obs.New().Counter("evictions")).decode(bytes.NewReader(framed.Bytes()), 4096)
		}},
	} {
		var err error
		if n := allocated(func() { err = c.decode() }); n >= 1<<20 {
			t.Errorf("%s: decoding an empty body allocated %d bytes", c.name, n)
		}
		if err == nil {
			t.Errorf("%s: an empty body decoded", c.name)
		}
	}
}

// FuzzWarmState feeds arbitrary bytes to the warm-state decoder: it never
// panics, allocates at most 1 MiB beyond 64 bytes per input byte, and any
// store it accepts encodes to a file that decodes to the same entries —
// which encode to the same bytes again.
func FuzzWarmState(f *testing.F) {
	saved, err := os.ReadFile(filepath.Join("testdata", "stfcache.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	f.Add(saved[:len(warmMagic)+4])
	f.Add([]byte(warmMagic))
	f.Add([]byte{})

	const limit = 4096
	decode := func(data []byte) (*stfStore, error) {
		st := newSTFStore(limit, obs.New().Counter("evictions"))
		return st, st.decode(bytes.NewReader(data), limit)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st *stfStore
		var err error
		if n := allocated(func() { st, err = decode(data) }); n > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := st.encode(&once); err != nil {
			t.Fatalf("an accepted store does not encode: %v", err)
		}
		again, err := decode(once.Bytes())
		if err != nil {
			t.Fatalf("a re-encoded store does not decode: %v", err)
		}
		if again.len() != st.len() {
			t.Fatalf("%d entries decoded, %d after a round trip", st.len(), again.len())
		}
		var twice bytes.Buffer
		if err := again.encode(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("a round trip changed the store's entries")
		}
	})
}
