package archive

import (
	"bytes"
	"sync"
	"testing"

	"rlz/internal/rlz"
)

// TestConcurrentGetSharedReader is the read-path race sweep at the
// archive layer: for every backend, one shared Reader is hammered by 8+
// goroutines requesting overlapping ids through Get, GetAppend and
// Extent simultaneously. Run under -race this enforces the Reader
// interface's concurrency contract (methods safe with distinct
// destination buffers) for every registered backend.
func TestConcurrentGetSharedReader(t *testing.T) {
	docs := makeDocs(48, 11)
	cases := map[string]Options{}
	for backend, opts := range optionsFor(t, docs) {
		cases[string(backend)] = opts
	}
	// ZZ inflates both streams of every record, so concurrent Gets share
	// rlz's pooled inflate state twice per document.
	cases["rlz-ZZ"] = Options{Backend: RLZ, Dict: dictFor(docs), Codec: rlz.CodecZZ}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := Build(&buf, FromBodies(docs), opts); err != nil {
				t.Fatal(err)
			}
			r, err := OpenBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 10
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var dst []byte
					for i := 0; i < 150; i++ {
						id := (g*17 + i*5) % len(docs) // overlaps across goroutines
						var err error
						switch i % 3 {
						case 0:
							var doc []byte
							doc, err = r.Get(id)
							if err == nil && !bytes.Equal(doc, docs[id]) {
								t.Errorf("goroutine %d: Get(%d) wrong bytes", g, id)
								return
							}
						case 1:
							dst, err = r.GetAppend(dst[:0], id)
							if err == nil && !bytes.Equal(dst, docs[id]) {
								t.Errorf("goroutine %d: GetAppend(%d) wrong bytes", g, id)
								return
							}
						case 2:
							_, _, err = r.Extent(id)
						}
						if err != nil {
							t.Errorf("goroutine %d: op on %d: %v", g, id, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestConcurrentSearchAndGet exercises the RLZ backend's decode-only
// dictionary under concurrency: Get decodes documents while FindAll and
// GetRange walk the same Reader, so the lazily built suffix-array state
// and the shared dictionary text are raced against each other.
func TestConcurrentSearchAndGet(t *testing.T) {
	docs := makeDocs(32, 12)
	var buf bytes.Buffer
	if _, err := Build(&buf, FromBodies(docs), optionsFor(t, docs)[RLZ]); err != nil {
		t.Fatal(err)
	}
	r, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s, ok := AsSearcher(r)
	if !ok {
		t.Fatal("RLZ reader does not expose Searcher")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []byte
			for i := 0; i < 40; i++ {
				id := (g + i) % len(docs)
				switch i % 3 {
				case 0:
					var err error
					dst, err = r.GetAppend(dst[:0], id)
					if err != nil || !bytes.Equal(dst, docs[id]) {
						t.Errorf("goroutine %d: GetAppend(%d): %v", g, id, err)
						return
					}
				case 1:
					ms, err := s.FindAll([]byte("footer"), 4)
					if err != nil || len(ms) == 0 {
						t.Errorf("goroutine %d: FindAll: %d matches, %v", g, len(ms), err)
						return
					}
				case 2:
					if _, err := s.GetRange(id, 0, 16); err != nil {
						t.Errorf("goroutine %d: GetRange(%d): %v", g, id, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
