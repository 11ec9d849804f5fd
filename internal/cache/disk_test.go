package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, maxBytes int64) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskRoundtripAndRestart(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	payload := []byte(`{"func":"tiny","instrs":3}`)
	d.Put("aaaa", payload)
	got, ok := d.Get("aaaa")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip: %q, %t", got, ok)
	}

	// A fresh Disk over the same directory — the restart — must hit.
	d2 := mustOpen(t, dir, 1<<20)
	got, ok = d2.Get("aaaa")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("after restart: %q, %t", got, ok)
	}
	if st := d2.Stats(); st.Hits != 1 || st.Corrupt != 0 {
		t.Fatalf("restart stats %+v", st)
	}
}

func TestDiskTruncatedEntryIsMissNotError(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	d.Put("trunc", []byte(strings.Repeat("x", 500)))
	path := filepath.Join(dir, "trunc"+diskSuffix)
	if err := os.Truncate(path, 40); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("trunc"); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats after truncated read: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("truncated entry not deleted: %v", err)
	}
	// The key is now a plain miss, and can be refilled.
	if _, ok := d.Get("trunc"); ok {
		t.Fatal("deleted entry hit")
	}
	d.Put("trunc", []byte("fresh"))
	if got, ok := d.Get("trunc"); !ok || string(got) != "fresh" {
		t.Fatalf("refill failed: %q, %t", got, ok)
	}
}

func TestDiskCorruptBytesAreMiss(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	d.Put("bits", []byte("payload-payload-payload"))
	path := filepath.Join(dir, "bits"+diskSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0xff // damage the checksum region
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("bits"); ok {
		t.Fatal("bit-damaged entry served as a hit")
	}
	if st := d.Stats(); st.Corrupt != 1 {
		t.Fatalf("corruption not counted: %+v", st)
	}
}

func TestDiskStaleSchemaVersionIsReclaimed(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	d.Put("keep", []byte("current"))
	// Forge a well-framed entry of the previous schema, an ancient
	// one, and an abandoned temp file.
	prev := encodeEntry("prev", []byte("stale"))
	binary.LittleEndian.PutUint32(prev[8:12], SchemaVersion-1)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("prev.v%d", SchemaVersion-1)), prev, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old.v0"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, 1<<20)
	for _, key := range []string{"prev", "old"} {
		if _, ok := d2.Get(key); ok {
			t.Fatalf("stale-schema entry %q hit", key)
		}
	}
	if _, ok := d2.Get("keep"); !ok {
		t.Fatal("current-schema entry lost in rescan")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "keep"+diskSuffix {
			t.Fatalf("unreclaimed file %q", e.Name())
		}
	}
}

func TestDiskEvictsUnderByteBudget(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("p"), 200)
	entrySize := int64(len(encodeEntry("k00", payload)))
	d := mustOpen(t, dir, 4*entrySize)
	for i := 0; i < 8; i++ {
		d.Put(fmt.Sprintf("k%02d", i), payload)
	}
	if d.Size() > 4*entrySize {
		t.Fatalf("size %d exceeds budget %d", d.Size(), 4*entrySize)
	}
	st := d.Stats()
	if st.Evictions != 4 {
		t.Fatalf("evictions %d, want 4", st.Evictions)
	}
	// Oldest gone, newest present.
	if _, ok := d.Get("k00"); ok {
		t.Fatal("oldest entry survived the byte budget")
	}
	if _, ok := d.Get("k07"); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestDiskConcurrent(t *testing.T) {
	d := mustOpen(t, t.TempDir(), 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%8)
				d.Put(key, []byte(key))
				if got, ok := d.Get(key); ok && string(got) != key {
					t.Errorf("key %s returned %q", key, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
