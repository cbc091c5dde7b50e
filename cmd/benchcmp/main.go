// Command benchcmp diffs two BENCH_*.json files produced by
// scripts/bench.sh and reports per-benchmark deltas, so the perf
// trajectory between commits is a one-command check instead of manual
// JSON spelunking.
//
//	benchcmp [-threshold pct] [-match regexp] old.json new.json
//
// For each benchmark the minimum ns/op over the non-warmup samples is
// compared (samples flagged "warmup": true absorb cold caches and are
// skipped; files from before the flag existed fall back to skipping the
// first sample of each benchmark, which the seed data shows is the cold
// one). Allocation counts are shown when both files carry -benchmem
// fields. -match scopes the comparison (and the threshold gate) to
// benchmarks whose package.Name matches the regexp — CI uses it to
// enforce the stable micro benches while leaving the noisier suite
// benches advisory. The derived parallel_speedup field (SuiteSerial /
// SuiteParallel, emitted by bench.sh) is diffed whenever either file
// carries it — unless a file records "gomaxprocs" below 2, in which
// case the comparison is skipped with a note: on a single-P host the
// parallel suite degenerates to serial execution and the ratio is
// noise, not a speedup (bench.sh omits the field there too). When BOTH
// files record gomaxprocs >= 4 the diff becomes a gate: with four or
// more Ps the parallel suite has real headroom, so a new
// parallel_speedup below 1.5x is a scheduler regression and benchcmp
// exits non-zero. On narrower (but multi-P) hosts the diff stays
// informational — two or three Ps leave too little headroom for a
// stable floor.
//
// When either file carries a layer_share object (bench.sh copies the
// per-layer cpu_share.* of one traced stashbench suite-cold pass into
// it), the shares are diffed layer by layer in percentage points. That
// diff is advisory: one traced pass is one sample, so it never fails.
//
// Exit status: 0 when no matched benchmark regressed by more than
// -threshold percent and the parallel_speedup floor (when armed) held,
// 1 when at least one failed, 2 on usage or parse errors — including a
// file whose every sample is warmup-flagged, which has no steady state
// to compare (re-run bench.sh with COUNT >= 2).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

type benchFile struct {
	Date       string   `json:"date"`
	Benchmarks []sample `json:"benchmarks"`

	// ParallelSpeedup is bench.sh's derived SuiteSerial/SuiteParallel
	// steady-state ns ratio; nil in files from before the field existed
	// and in files recorded on single-P hosts, where the ratio would be
	// noise.
	ParallelSpeedup *float64 `json:"parallel_speedup"`

	// GoMaxProcs is the host's scheduler width at record time; nil in
	// files from before the field existed (treated as multi-P, the
	// historical assumption).
	GoMaxProcs *int `json:"gomaxprocs"`

	// LayerShare is the share of CPU each simulator layer took in one
	// traced stashbench suite-cold pass, keyed by layer; nil in files
	// from before the field existed.
	LayerShare map[string]float64 `json:"layer_share"`
}

// layerShareDiff renders the advisory per-layer CPU share diff, or
// nothing when neither file carries layer shares.
func layerShareDiff(w io.Writer, before, after *benchFile) {
	if before.LayerShare == nil && after.LayerShare == nil {
		return
	}
	layers := map[string]bool{}
	for k := range before.LayerShare {
		layers[k] = true
	}
	for k := range after.LayerShare {
		layers[k] = true
	}
	sorted := make([]string, 0, len(layers))
	for k := range layers {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	share := func(m map[string]float64, k string) string {
		if v, ok := m[k]; ok {
			return fmt.Sprintf("%.3f", v)
		}
		return "-"
	}
	fmt.Fprintf(w, "%-55s %14s %14s %9s\n", "layer share (traced suite-cold, advisory)", "old", "new", "delta pp")
	for _, k := range sorted {
		o, haveOld := before.LayerShare[k]
		n, haveNew := after.LayerShare[k]
		delta := ""
		if haveOld && haveNew {
			delta = fmt.Sprintf("%+8.1f", 100*(n-o))
		}
		fmt.Fprintf(w, "%-55s %14s %14s %9s\n", "cpu_share."+k, share(before.LayerShare, k), share(after.LayerShare, k), delta)
	}
}

// singleP reports whether a file was recorded on a host without real
// parallelism, making its parallel_speedup (if any) meaningless.
func singleP(f *benchFile) bool {
	return f.GoMaxProcs != nil && *f.GoMaxProcs < 2
}

// minParallelSpeedup is the floor the suite must clear on hosts wide
// enough (gomaxprocs >= minGateProcs in BOTH snapshots) to make the
// ratio a stable signal rather than scheduling noise.
const (
	minParallelSpeedup = 1.5
	minGateProcs       = 4
)

// wideHost reports whether a file was recorded with enough Ps to gate
// on parallel_speedup. Files from before the gomaxprocs field existed
// report false: their width is unknown, so the floor stays unarmed.
func wideHost(f *benchFile) bool {
	return f.GoMaxProcs != nil && *f.GoMaxProcs >= minGateProcs
}

// speedupVerdict classifies the parallel_speedup comparison between two
// files: the line to print, and whether the armed floor was broken.
func speedupVerdict(before, after *benchFile) (line string, failed bool) {
	label := "parallel_speedup (serial/parallel ns)"
	switch {
	case singleP(before) || singleP(after):
		return fmt.Sprintf("%-55s skipped: recorded with GOMAXPROCS < 2, ratio would be noise", label), false
	case before.ParallelSpeedup != nil && after.ParallelSpeedup != nil:
		armed := wideHost(before) && wideHost(after)
		note := ""
		if armed && *after.ParallelSpeedup < minParallelSpeedup {
			note = fmt.Sprintf("  BELOW %.1fx FLOOR", minParallelSpeedup)
			failed = true
		}
		return fmt.Sprintf("%-55s %14.2fx %13.2fx %+8.1f%%%s", label,
			*before.ParallelSpeedup, *after.ParallelSpeedup,
			100*(*after.ParallelSpeedup-*before.ParallelSpeedup) / *before.ParallelSpeedup, note), failed
	case after.ParallelSpeedup != nil:
		return fmt.Sprintf("%-55s %14s %13.2fx %9s", label, "-", *after.ParallelSpeedup, "new"), false
	}
	return "", false
}

type sample struct {
	Name        string   `json:"name"`
	Package     string   `json:"package"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	Warmup      bool     `json:"warmup"`
}

// steady is one benchmark's steady-state summary: the minimum over its
// non-warmup samples. warmOnly marks a benchmark whose every sample was
// a warmup (single-sample runs), kept so the benchmark still appears.
type steady struct {
	nsPerOp  float64
	bytes    *float64
	allocs   *float64
	warmOnly bool
}

// summarize reduces a file's samples to per-benchmark steady state.
// Files written before the warmup flag existed have no flagged samples;
// for those the first sample of each benchmark is treated as the warmup.
func summarize(f *benchFile) map[string]steady {
	flagged := false
	for _, s := range f.Benchmarks {
		if s.Warmup {
			flagged = true
			break
		}
	}
	seen := map[string]int{}
	out := map[string]steady{}
	for _, s := range f.Benchmarks {
		key := s.Package + "." + s.Name
		idx := seen[key]
		seen[key] = idx + 1
		warm := s.Warmup || (!flagged && idx == 0)
		cur, have := out[key]
		// A steady sample always beats a warmup-only entry; among steady
		// samples the minimum ns/op wins.
		if have && (warm || (!cur.warmOnly && cur.nsPerOp <= s.NsPerOp)) {
			continue
		}
		out[key] = steady{nsPerOp: s.NsPerOp, bytes: s.BytesPerOp, allocs: s.AllocsPerOp, warmOnly: warm}
	}
	return out
}

// allWarmup reports whether a non-empty summary has no steady-state
// sample at all — every benchmark fell back to its warmup sample, so a
// min-of-steady comparison would silently compare cold-cache noise.
func allWarmup(m map[string]steady) bool {
	if len(m) == 0 {
		return false
	}
	for _, s := range m {
		if !s.warmOnly {
			return false
		}
	}
	return true
}

// filterMatch keeps only the benchmarks whose package.Name key matches re.
func filterMatch(m map[string]steady, re *regexp.Regexp) map[string]steady {
	out := make(map[string]steady, len(m))
	for k, v := range m {
		if re.MatchString(k) {
			out[k] = v
		}
	}
	return out
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compare renders the delta table and returns the keys that regressed
// by more than threshold percent (negative threshold disables).
func compare(w io.Writer, before, after map[string]steady, threshold float64) []string {
	keys := map[string]bool{}
	for k := range before {
		keys[k] = true
	}
	for k := range after {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	var regressed []string
	fmt.Fprintf(w, "%-55s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, k := range sorted {
		o, haveOld := before[k]
		n, haveNew := after[k]
		switch {
		case !haveOld:
			fmt.Fprintf(w, "%-55s %14s %14.0f %9s\n", k, "-", n.nsPerOp, "new")
		case !haveNew:
			fmt.Fprintf(w, "%-55s %14.0f %14s %9s\n", k, o.nsPerOp, "-", "gone")
		default:
			delta := 100 * (n.nsPerOp - o.nsPerOp) / o.nsPerOp
			note := ""
			if threshold >= 0 && delta > threshold {
				note = "  REGRESSED"
				regressed = append(regressed, k)
			}
			fmt.Fprintf(w, "%-55s %14.0f %14.0f %+8.1f%%%s\n", k, o.nsPerOp, n.nsPerOp, delta, note)
			//lint:allow floatcmp allocs/op are integer counts decoded from JSON, compared to the literal 0
			if o.allocs != nil && n.allocs != nil && (*o.allocs != 0 || *n.allocs != 0) {
				fmt.Fprintf(w, "%-55s %14.0f %14.0f  allocs/op\n", "", *o.allocs, *n.allocs)
			}
		}
	}
	return regressed
}

func main() {
	threshold := flag.Float64("threshold", 10, "fail when any benchmark's steady-state ns/op regresses by more than this percent; negative disables")
	match := flag.String("match", "", "only compare benchmarks whose package.Name matches this regexp")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchcmp [-threshold pct] [-match regexp] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	before, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	after, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	oldSum, newSum := summarize(before), summarize(after)
	for i, sum := range []map[string]steady{oldSum, newSum} {
		if allWarmup(sum) {
			fmt.Fprintf(os.Stderr, "benchcmp: every sample in %s is warmup-flagged — no steady state to compare; re-run scripts/bench.sh with COUNT >= 2\n", flag.Arg(i))
			os.Exit(2)
		}
	}
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: bad -match: %v\n", err)
			os.Exit(2)
		}
		oldSum, newSum = filterMatch(oldSum, re), filterMatch(newSum, re)
	}
	fmt.Printf("benchcmp %s (%s) -> %s (%s)\n", flag.Arg(0), before.Date, flag.Arg(1), after.Date)
	regressed := compare(os.Stdout, oldSum, newSum, *threshold)
	// The headline tentpole metric: informational on narrow hosts, a
	// hard floor when both snapshots came from gomaxprocs >= 4 hosts.
	line, speedupFailed := speedupVerdict(before, after)
	if line != "" {
		fmt.Println(line)
	}
	layerShareDiff(os.Stdout, before, after)
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: %d benchmark(s) regressed beyond %.1f%%\n", len(regressed), *threshold)
	}
	if speedupFailed {
		fmt.Fprintf(os.Stderr, "benchcmp: parallel_speedup %.2fx is below the %.1fx floor (both snapshots recorded with gomaxprocs >= %d)\n",
			*after.ParallelSpeedup, minParallelSpeedup, minGateProcs)
	}
	if len(regressed) > 0 || speedupFailed {
		os.Exit(1)
	}
}
