package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// rlzdBin is the daemon the end-to-end tests drive, built once.
var rlzdBin string

func TestMain(m *testing.M) {
	if real := os.Getenv(faultyEnv); real != "" {
		os.Exit(faultyRLZD(real, os.Args[1:]))
	}
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rlzdBin = filepath.Join(dir, "rlzd")
	if out, err := exec.Command("go", "build", "-o", rlzdBin, "rlz/cmd/rlzd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building rlzd: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// faultyEnv, when set to an rlzd binary, makes the test binary act as a
// faulty rlzd: it runs the real one behind a proxy that answers 404 to
// GET /doc/{faultyID}.
const (
	faultyEnv = "PERFBENCH_FAULTY_RLZD"
	faultyID  = 7
)

// faultyRLZD serves rlzd's flags args on their -addr through a proxy to
// the real rlzd at bin, which it runs on another port. The real rlzd is
// killed when this process dies.
func faultyRLZD(bin string, args []string) int {
	addr := ""
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "-addr" {
			addr = args[i+1]
		}
	}
	port, err := freePort()
	if addr == "" || err != nil {
		fmt.Fprintln(os.Stderr, "faulty rlzd: no -addr or no free port:", err)
		return 2
	}
	backend := "127.0.0.1:" + strconv.Itoa(port)
	realArgs := append([]string(nil), args...)
	for i := range realArgs {
		if realArgs[i] == addr {
			realArgs[i] = backend
		}
	}
	// Pdeathsig follows the thread that started the child, so that
	// thread must live as long as the process: it is never unlocked.
	runtime.LockOSThread()
	cmd := exec.Command(bin, realArgs...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "faulty rlzd:", err)
		return 1
	}
	proxy := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: backend})
	missing := "/doc/" + strconv.Itoa(faultyID)
	err = http.ListenAndServe(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == missing {
			http.NotFound(w, r)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	fmt.Fprintln(os.Stderr, "faulty rlzd:", err)
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return 1
}

// contract is the part of BENCHMARK.json the program must match.
type contract struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs every workload at tiny scale and returns the report and
// the decoded result line.
func runTiny(t *testing.T, trace string) (string, map[string]map[string]metric) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-workload", "all", "-scale", "tiny", "-seconds", "2", "-seed", "3", "-trace", trace,
		"-rlzd", rlzdBin, "-workdir", filepath.Join(t.TempDir(), "w")}
	if code := run(args, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   *bool                        `json:"correct"`
		Attempted *int64                       `json:"attempted"`
		Failed    *int64                       `json:"failed"`
		Metrics   map[string]map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v\n%s", err, lines[len(lines)-1])
	}
	if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
		t.Fatalf("result correct=%v attempted=%v failed=%v", res.Correct, res.Attempted, res.Failed)
	}
	return out.String(), res.Metrics
}

func names[T any](m map[string]T) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestTinyScaleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives rlzd through all four workloads")
	}
	c := readContract(t)
	report, metrics := runTiny(t, "0")
	if len(metrics) != len(c.Workloads) {
		t.Fatalf("ran workloads %v, want %d", names(metrics), len(c.Workloads))
	}
	// Every workload reports every end-to-end metric, with its unit.
	for _, w := range c.Workloads {
		got := metrics[w.Name]
		if len(got) != len(c.EndToEnd) {
			t.Errorf("%s reports %v, want the %d end-to-end metrics", w.Name, names(got), len(c.EndToEnd))
		}
		for _, e := range c.EndToEnd {
			m, ok := got[e.Name]
			if !ok || m.Unit != e.Unit || math.IsNaN(m.Value) || m.Value < 0 {
				t.Errorf("%s %s = %+v (present %v), want unit %s and a value >= 0", w.Name, e.Name, m, ok, e.Unit)
			}
		}
		for _, name := range []string{"setup_s", "op_p50_us", "stored_pct", "peak_rss_mb"} {
			if got[name].Value <= 0 {
				t.Errorf("%s %s = %v, want > 0", w.Name, name, got[name].Value)
			}
		}
	}
	// The report names the workload-specific figures and their counts.
	for _, want := range []string{
		"hot-zipf-get get_p99_us", "cold-uniform-get get_docs_per_s", "ingest-compact append_p50_us",
		"ingest-compact compact_mb_per_s", "shard-seq-scan scan_mb_per_s", "shard-seq-scan batch_p99_us",
		"ingest-compact read back all", "failed_pct 0 %", "loadgen.late_p99_us", `"heldout_seed":`,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

// TestFailedReadFailsRun: rlzd answering 404 for one acknowledged id
// makes the run incorrect, although every byte it did serve is right.
func TestFailedReadFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives rlzd through ingest-compact")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(faultyEnv, rlzdBin)
	var out bytes.Buffer
	args := []string{"-workload", "ingest-compact", "-scale", "tiny", "-seconds", "2", "-seed", "3", "-trace", "0",
		"-rlzd", self, "-workdir", filepath.Join(t.TempDir(), "w")}
	if code := run(args, &out); code == 0 {
		t.Fatalf("run exited 0 with GET /doc/%d failing:\n%s", faultyID, out.String())
	}
	if strings.Contains(out.String(), `"correct":true`) {
		t.Fatalf("run reported correct with GET /doc/%d failing:\n%s", faultyID, out.String())
	}
}

func TestTinyScaleTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("drives rlzd through all four workloads")
	}
	c := readContract(t)
	_, metrics := runTiny(t, "1")
	for _, w := range c.Workloads {
		got := metrics[w.Name]
		if len(got) != len(c.PerLayer) {
			t.Errorf("%s reports %v, want the %d per-layer metrics", w.Name, names(got), len(c.PerLayer))
		}
		for _, p := range c.PerLayer {
			if m, ok := got[p.Name]; !ok || m.Unit != p.Unit {
				t.Errorf("%s %s = %+v (present %v), want unit %s", w.Name, p.Name, m, ok, p.Unit)
			}
		}
	}
	// Each layer shows up on the workload that exercises it.
	for _, tc := range []struct{ workload, metric string }{
		{"cold-uniform-get", "rlz.factor_decode_us"},
		{"cold-uniform-get", "trace.coverage_pct"},
		{"shard-seq-scan", "rlzd.batch_self_us"},
		{"shard-seq-scan", "rlz.factors_per_doc"},
		{"ingest-compact", "wal.commit_wait_us"},
		{"ingest-compact", "faultfs.fsyncs_per_append"},
		{"ingest-compact", "rlz.factorize_mb_per_s"},
		{"ingest-compact", "collection.compact_s"},
		{"hot-zipf-get", "serve.cache_hit_pct"},
	} {
		if v := metrics[tc.workload][tc.metric].Value; v <= 0 {
			t.Errorf("%s %s = %v, want > 0", tc.workload, tc.metric, v)
		}
	}
	// Layers a workload never reaches read zero.
	for _, tc := range []struct{ workload, metric string }{
		{"hot-zipf-get", "rlzd.batch_self_us"},
		{"cold-uniform-get", "wal.enqueue_us"},
		{"shard-seq-scan", "faultfs.fsyncs_per_append"},
	} {
		if v := metrics[tc.workload][tc.metric].Value; v != 0 {
			t.Errorf("%s %s = %v, want 0", tc.workload, tc.metric, v)
		}
	}
}
