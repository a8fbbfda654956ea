package shard

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/rlz"
)

// TestConcurrentGetSharedShardReader is the shard-layer edition of the
// archive concurrency sweep: one shared shard Reader per backend is
// hammered by 10 goroutines issuing overlapping Get, GetAppend and
// Extent calls (plus FindAll on RLZ). Run under -race this enforces
// that shard.Reader honors the archive.Reader concurrency contract.
func TestConcurrentGetSharedShardReader(t *testing.T) {
	docs := makeDocs(48, 11)
	cases := map[string]archive.Options{}
	for backend, opts := range optionsFor(docs) {
		cases[string(backend)] = opts
	}
	// ZZ inflates both streams of every record, so concurrent Gets share
	// rlz's pooled inflate state twice per document.
	cases["rlz-ZZ"] = archive.Options{Backend: archive.RLZ, Dict: dictFor(docs), Codec: rlz.CodecZZ}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "set")
			if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 5, Archive: opts}); err != nil {
				t.Fatal(err)
			}
			r, err := archive.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// byGlobal[g] is the document the set serves for global id g.
			byGlobal := make([][]byte, len(docs))
			for i, d := range docs {
				byGlobal[globalID(i, len(docs), 5)] = d
			}
			searcher, isRLZ := archive.AsSearcher(r)
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
						switch i % 4 {
						case 0:
							var doc []byte
							doc, err = r.Get(id)
							if err == nil && !bytes.Equal(doc, byGlobal[id]) {
								t.Errorf("goroutine %d: Get(%d) wrong bytes", g, id)
								return
							}
						case 1:
							dst, err = r.GetAppend(dst[:0], id)
							if err == nil && !bytes.Equal(dst, byGlobal[id]) {
								t.Errorf("goroutine %d: GetAppend(%d) wrong bytes", g, id)
								return
							}
						case 2:
							_, _, err = r.Extent(id)
						case 3:
							if isRLZ {
								var ms []archive.Match
								ms, err = searcher.FindAll([]byte("footer"), 4)
								if err == nil && len(ms) == 0 {
									t.Errorf("goroutine %d: FindAll found nothing", g)
									return
								}
							} else {
								_ = r.NumDocs()
								_ = r.Size()
							}
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

// TestConcurrentCreates races several independent sharded builds (each
// with internal pipelines) to shake out shared-state bugs in Create.
func TestConcurrentCreates(t *testing.T) {
	docs := makeDocs(40, 13)
	opts := optionsFor(docs)[archive.RLZ]
	root := t.TempDir()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			dir := filepath.Join(root, fmt.Sprintf("set-%d", k))
			_, errs[k] = Create(dir, archive.FromBodies(docs), Options{Shards: 3, Archive: opts})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Errorf("build %d: %v", k, err)
		}
	}
	// All four sets must be byte-identical (determinism under contention).
	r0, err := archive.Open(filepath.Join(root, "set-0"))
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	for k := 1; k < 4; k++ {
		rk, err := archive.Open(filepath.Join(root, fmt.Sprintf("set-%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		if rk.Size() != r0.Size() || rk.NumDocs() != r0.NumDocs() {
			t.Errorf("set-%d differs from set-0", k)
		}
		rk.Close()
	}
}
