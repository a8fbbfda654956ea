// Command perfbench is the repository benchmark: it drives the real
// daemon, cmd/rlzd, over loopback HTTP on four workloads, checks every
// byte served against the generated inputs, and prints each metric by
// name with its unit. With -trace 1 it instead replays the workload's
// operations at each layer's public entry point, from rlzd down to rlz
// and wal, and prints per-layer metrics.
//
// Run it through run.sh, which builds rlzd and this program:
//
//	bash perfbench/run.sh --workload cold-uniform-get --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a report:
// provenance, the workload's metrics under their descriptive names, and
// sample counts. The command exits non-zero when any operation failed:
// a served byte that differs from the generated document, an error
// status, a transport error or a 429.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// scale sizes the generated inputs and replays. full is what the
// benchmark measures; tiny exists so the tests can run every workload
// end to end in seconds.
type scale struct {
	avgDoc       int // mean generated document size in bytes
	roundBytes   int // bytes per drifted round of the read collection (4 rounds)
	scanBytes    int // bytes of the static sharded archive
	ingestBytes  int // bytes generated per ingest round
	ingestDocs   int // documents appended per ingest round
	setups       int // set-ups per run of a built workload; setup_s is their median
	traceBatches int // batches replayed per layer in a traced run
	traceAppends int // documents per round in the traced write replay
	rates        map[string]float64
}

// closedShare is the share of a read phase run as a closed loop; the
// paced open loop gets the rest.
const closedShare = 0.4

// traceGets is how many GET ids a traced run replays per layer, after as
// many more that warm the cache.
const traceGets = 3000

var scales = map[string]scale{
	"full": {
		// The GOV2 stand-in with 8 KiB mean documents: a 64 MiB
		// collection then holds about 8k documents, so rlzd's default
		// 1024-doc cache covers about an eighth of it.
		avgDoc:       8 << 10,
		roundBytes:   16 << 20,
		scanBytes:    64 << 20,
		ingestBytes:  20 << 20,
		ingestDocs:   2000,
		setups:       3,
		traceBatches: 48,
		traceAppends: 300,
		// Paced arrival rates (requests per second), frozen at a tenth
		// to a quarter of the closed-loop capacity measured on a 2-vCPU
		// Xeon guest. At half capacity the open loop fell seconds behind
		// whenever the hypervisor took CPU away, and its latencies then
		// measured the other tenants.
		rates: map[string]float64{
			"hot-zipf-get":     1000,
			"cold-uniform-get": 600,
			"ingest-compact":   300,
			"shard-seq-scan":   30,
		},
	},
	"tiny": {
		avgDoc:       1 << 10,
		roundBytes:   640 << 10, // 2.5k documents: more than rlzd's cache holds
		scanBytes:    512 << 10,
		ingestBytes:  640 << 10,
		ingestDocs:   300,
		setups:       1,
		traceBatches: 6,
		traceAppends: 20,
		rates: map[string]float64{
			"hot-zipf-get":     200,
			"cold-uniform-get": 200,
			"ingest-compact":   100,
			"shard-seq-scan":   20,
		},
	},
}

// heldOutSeed is never used while tuning the benchmark or a change; a
// change claiming a gain confirms it on this seed too.
const heldOutSeed = 7919

// conns is the most connections the load ever uses: one per CPU of the
// 2-vCPU machine the benchmark was defined on.
const conns = 2

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	rlzd     string
	workdir  string
	spansDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produces.
type result struct {
	tally
	metrics map[string]metric // contract metrics: end-to-end, or per-layer when traced
	report  map[string]metric // descriptive names, printed in the report
	notes   []string          // sample counts and similar, printed in the report
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(name string, v float64, unit string) {
	if r.report == nil {
		r.report = map[string]metric{}
	}
	r.report[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloadNames = []string{"hot-zipf-get", "cold-uniform-get", "ingest-compact", "shard-seq-scan"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run runs the benchmark with command-line args, writing the report and
// the result line to stdout, and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name, or all: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 replays the operations layer by layer and reports per-layer metrics")
	scaleName := fs.String("scale", "full", "input scale: full or tiny")
	rlzd := fs.String("rlzd", "", "path to the rlzd binary (required)")
	workdir := fs.String("workdir", "", "scratch directory for collections and archives (required; removed at exit)")
	spans := fs.String("spans", "", "directory to write traced spans to (optional)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok || *rlzd == "" || *workdir == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -rlzd, -workdir, -seconds > 0 and -scale full|tiny")
		return 2
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames
	} else if !known(*wl) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(*workdir)

	prov := provenance(*workdir, *seed)
	fmt.Fprintf(stdout, "# provenance %s\n", mustJSON(prov))
	var total result
	all := map[string]map[string]metric{}
	for _, name := range names {
		cfg := config{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: sc,
			rlzd: *rlzd, workdir: filepath.Join(*workdir, name), spansDir: *spans,
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, name, res)
		total.tally.add(res.tally)
		all[name] = res.metrics
		if err := res.verdict(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			break
		}
	}
	correct := total.verdict() == nil
	out := map[string]any{
		"correct":   correct,
		"attempted": total.attempted,
		"failed":    total.failed,
	}
	if len(names) == 1 {
		out["metrics"] = all[names[0]]
	} else {
		out["metrics"] = all
	}
	fmt.Fprintln(stdout, mustJSON(out))
	if !correct {
		return 1
	}
	return 0
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

func printReport(w io.Writer, name string, res result) {
	keys := make([]string, 0, len(res.report))
	for k := range res.report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.report[k]
		fmt.Fprintf(w, "# %s %s %.6g %s\n", name, k, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s %s\n", name, n)
	}
	if res.attempted > 0 {
		fmt.Fprintf(w, "# %s failed_pct %.6g %% (%d of %d operations; %d byte mismatches, %d shed with 429)\n",
			name, 100*float64(res.failed)/float64(res.attempted), res.failed, res.attempted, res.mismatches, res.shed)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func runWorkload(cfg config) (result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.workdir)
	switch cfg.workload {
	case "hot-zipf-get", "cold-uniform-get":
		return runGetWorkload(cfg)
	case "ingest-compact":
		return runIngest(cfg)
	case "shard-seq-scan":
		return runScan(cfg)
	}
	return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
}

// provenance records what produced a result.
func provenance(dir string, seed int64) map[string]any {
	return map[string]any{
		"commit":       commit(),
		"go":           runtime.Version(),
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"tmp_fs":       fsType(dir),
		"seed":         seed,
		"heldout_seed": heldOutSeed,
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
