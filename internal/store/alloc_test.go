package store

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rlz/internal/corpus"
	"rlz/internal/mmapio"
	"rlz/internal/rlz"
)

// TestGetAppendSteadyStateAllocs pins the allocation-free RLZ read path:
// after warm-up, an uncached GetAppend draws its record buffer (or
// mapping view), factor slice and inflate state from pools, over an
// in-memory archive and over a memory mapping.
//
// It pins bytes, not objects: stdlib flate's huffmanDecoder.init still
// allocates about 30 small link tables per dynamic Huffman block it
// reads, so the object count is not zero, but their bytes are small
// next to the fresh zlib window, record copy and factor growth each
// read cost before pooling (about 76 KiB per read on this corpus).
func TestGetAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled values at random under the race detector")
	}
	coll := corpus.Generate(corpus.Gov, 1<<20, 3)
	docs := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		docs[i] = d.Body
	}
	arc := buildArchive(t, docs, rlz.CodecZV)
	readers := map[string]*Reader{}
	mem, err := OpenBytes(arc)
	if err != nil {
		t.Fatal(err)
	}
	readers["memory"] = mem
	if mmapio.Supported() {
		path := filepath.Join(t.TempDir(), "a.rlz")
		if err := os.WriteFile(path, arc, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mmapio.Map(f, int64(len(arc)))
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if readers["mapped"], err = Open(m, m.Len()); err != nil {
			t.Fatal(err)
		}
	}
	for name, r := range readers {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, 0, 64<<10)
			for i := range docs { // warm the pools
				var err error
				if buf, err = r.GetAppend(buf[:0], i); err != nil || !bytes.Equal(buf, docs[i]) {
					t.Fatalf("document %d: %v", i, err)
				}
			}
			const reads = 400
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < reads; i++ {
				buf, _ = r.GetAppend(buf[:0], i%len(docs))
			}
			runtime.ReadMemStats(&after)
			perRead := float64(after.TotalAlloc-before.TotalAlloc) / reads
			if perRead > 4<<10 {
				t.Errorf("uncached GetAppend allocates %.0f bytes/read in steady state, want <= 4096", perRead)
			}
			t.Logf("uncached GetAppend steady state: %.0f bytes/read, %.1f objects/read",
				perRead, float64(after.Mallocs-before.Mallocs)/reads)
		})
	}
}
