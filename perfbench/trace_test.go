package main

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"rlz/internal/archive"
)

func TestSelfTimeSubtraction(t *testing.T) {
	// serve answered 80 calls from its cache in 2us and missed 40 times,
	// spending 34us of which 30us were in the layer below. One hit was
	// caught in a 50ms stall of the machine.
	var parent, child []time.Duration
	for i := 0; i < 120; i++ {
		if i%3 == 2 {
			parent, child = append(parent, us(34)), append(child, us(30))
		} else {
			parent, child = append(parent, us(2)), append(child, 0)
		}
	}
	parent[0] = 50 * time.Millisecond
	// Trimming drops three calls from each end, the stall among them;
	// the hit and miss paths still average in their proportions: 2us per
	// hit, 4us per miss.
	if want := (76*2 + 38*4) / 114.0; math.Abs(selfUs(parent, child)-want) > 1e-9 {
		t.Errorf("self = %vus per call, want %v", selfUs(parent, child), want)
	}
	// A parallel child can cover more than its parent's interval: the
	// subtraction reports that as negative self time, not as zero.
	if got := selfUs([]time.Duration{us(10)}, []time.Duration{us(15)}); got != -5 {
		t.Errorf("self = %vus per call, want -5", got)
	}
	if got := selfUs(nil, nil); got != 0 {
		t.Errorf("self over no calls = %v, want 0", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	ds := make([]time.Duration, 0, 200)
	for i := 0; i < 200; i++ {
		ds = append(ds, us(10))
	}
	ds[7] = time.Second // a stall
	ds[9] = 0           // and its mirror image
	if got := trimmedUs(ds); got != 10 {
		t.Errorf("trimmed mean = %v, want 10 (the extremes dropped)", got)
	}
}

func TestCoverage(t *testing.T) {
	f := leafFigures{extentNs: 200, readUs: 1, decodeUs: 5, copyUs: 3.8}
	if got := f.coverage(10); math.Abs(got-100) > 1e-9 {
		t.Errorf("coverage = %v%%, want 100", got)
	}
	if got := f.coverage(20); math.Abs(got-50) > 1e-9 {
		t.Errorf("coverage = %v%%, want 50", got)
	}
	if got := f.coverage(0); got != 0 {
		t.Errorf("coverage of an unmeasured store layer = %v, want 0", got)
	}
}

// tinyArchive builds an RLZ archive of generated documents and returns
// its path and documents.
func tinyArchive(t *testing.T) (string, [][]byte) {
	t.Helper()
	docs := generate(scales["tiny"], 128<<10, 9)
	dict, _, err := archive.SampleDict(func() (archive.DocSource, error) { return archive.FromBodies(docs), nil }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.rlz")
	if _, err := archive.Create(path, archive.FromBodies(docs), archive.Options{Dict: dict}); err != nil {
		t.Fatal(err)
	}
	return path, docs
}

func TestReplayLowerSplitsTheStoreLayer(t *testing.T) {
	path, docs := tinyArchive(t)
	r, err := archive.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, mapped := range []bool{true, false} {
		leaf, err := openLeaf(path, mapped)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(docs))
		for i := range ids {
			ids[i] = (i * 7) % len(docs)
		}
		tr := newTracer()
		f, err := replayLower(tr, r, func(id int) (*leafSeg, int) { return leaf, id }, ids, func(id int) []byte { return docs[id] })
		leaf.close()
		if err != nil {
			t.Fatal(err)
		}
		if f.storeCalls != len(ids) || len(f.route) != len(ids) {
			t.Fatalf("replayed %d store calls and %d route calls, want %d each", f.storeCalls, len(f.route), len(ids))
		}
		if f.leaf.factors <= 0 || f.leaf.extentNs <= 0 || f.leaf.decodeUs <= 0 || f.leaf.copyUs <= 0 || f.storeUs <= 0 {
			t.Errorf("mapped=%v: empty figures %+v, store %vus", mapped, f.leaf, f.storeUs)
		}
		// The four parts are the store layer's work; allocation and
		// timer noise keep them from summing exactly.
		if c := f.leaf.coverage(f.storeUs); c < 20 || c > 300 {
			t.Errorf("mapped=%v: coverage %.1f%% is not near 100", mapped, c)
		}
		// One span per measured call and layer; warm-up passes and the
		// overhead loops keep none.
		count := map[string]int{}
		for _, s := range tr.spans {
			count[s.layer]++
		}
		for _, layer := range []string{"route", "store", "docmap", "read", "decode", "copy"} {
			if count[layer] != len(ids) {
				t.Errorf("mapped=%v: %d %s spans, want %d", mapped, count[layer], layer, len(ids))
			}
		}
	}
}

func TestReplayLowerDetectsWrongBytes(t *testing.T) {
	path, docs := tinyArchive(t)
	r, err := archive.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	leaf, err := openLeaf(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.close()
	want := func(id int) []byte {
		if id == 3 {
			return []byte("not the document")
		}
		return docs[id]
	}
	_, err = replayLower(newTracer(), r, func(id int) (*leafSeg, int) { return leaf, id }, []int{1, 2, 3}, want)
	if !errors.Is(err, errMismatch) {
		t.Fatalf("replay over a wrong expectation returned %v, want a mismatch", err)
	}
}
