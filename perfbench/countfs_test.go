package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rlz/internal/collection"
	"rlz/internal/faultfs"
)

func TestCountingFSCountsWritesAndSyncs(t *testing.T) {
	dir := t.TempDir()
	c := newCountingFS(faultfs.OS)
	f, err := c.OpenFile(filepath.Join(dir, "a"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("!!")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(filepath.Join(dir, "b"), []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	// Reads and failed opens count nothing.
	if _, err := c.ReadFile(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenFile(filepath.Join(dir, "missing", "x"), os.O_RDONLY, 0); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
	written, syncs := c.snapshot()
	if written != 10 || syncs != 2 {
		t.Errorf("counted %d bytes and %d fsyncs, want 10 and 2", written, syncs)
	}
	// The wrapper passes the bytes through unchanged.
	got, err := os.ReadFile(filepath.Join(dir, "a"))
	if err != nil || !bytes.Equal(got, []byte("hello!!")) {
		t.Errorf("file holds %q (%v), want hello!!", got, err)
	}
}

// replayCounts appends docs serially to a fresh durable collection over a
// counting filesystem, compacts, and returns the counters.
func replayCounts(t *testing.T, docs [][]byte) (written, syncs, appendSyncs int64) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "col")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	c := newCountingFS(faultfs.OS)
	col, err := collection.Open(dir, collection.Options{FS: c})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for _, d := range docs {
		if _, err := col.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	_, appendSyncs = c.snapshot()
	if _, err := col.Compact(adaptive); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	written, syncs = c.snapshot()
	return written, syncs, appendSyncs
}

func TestCountingFSUnderDurableAppends(t *testing.T) {
	docs := generate(scales["tiny"], 64<<10, 5)
	var user int64
	for _, d := range docs {
		user += int64(len(d))
	}
	w1, s1, a1 := replayCounts(t, docs)
	if a1 < int64(len(docs)) {
		t.Errorf("%d fsyncs for %d durable single-client appends, want at least one each", a1, len(docs))
	}
	if w1 < user {
		t.Errorf("%d bytes written through the filesystem for %d user bytes", w1, user)
	}
	// A single client's replay repeats its counts exactly.
	w2, s2, a2 := replayCounts(t, docs)
	if w1 != w2 || s1 != s2 || a1 != a2 {
		t.Errorf("replays counted (%d, %d, %d) then (%d, %d, %d)", w1, s1, a1, w2, s2, a2)
	}
}
