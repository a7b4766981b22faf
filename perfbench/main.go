// Command perfbench is the repository's wall-clock HTAP benchmark. It
// builds a fixture, serves it through internal/server's HTTP front end
// on loopback, drives one of three workloads closed-loop from two
// client lanes, checks the answers, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload twice with the same seed, untraced then traced,
// and reports the per-layer metrics of the traced run plus the tracing
// overhead. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload dashboard|htap|ingest --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hybridstore"
)

// minSetups is how many times a run sets up its store; setup_s is the
// median. The set-ups are spread over the run (dashboard and htap time
// some before and some after the load; ingest times one per round), so
// the median samples the machine's speed over the whole run rather than
// over its first two seconds.
const minSetups = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "dashboard, htap or ingest")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 20, "measured load time per phase budget, in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	state := fl.String("state", ".bench_build", "directory for ingest data and span dumps")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp := specs[*name]
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload dashboard|htap|ingest, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(sp, *seed, d, *state)
	} else {
		res, err = plainRun(sp, *seed, d, *state)
	}
	if res != nil {
		res.Correct = err == nil
		printResult(stdout, res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %v\n", sp.name, err)
		return 1
	}
	return 0
}

func printResult(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, _ := json.Marshal(res) // only numbers and strings: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

// phaseResult is one load phase of a workload: its client record, its
// set-up times and, for ingest, its rounds.
type phaseResult struct {
	ld       *load   // every measured request
	segments []*load // ingest's rounds, or dashboard's and htap's whole phase
	setups   []time.Duration
	rounds   []*round
	fixture  *fixture // dashboard and htap; freed by the caller
	checked  int      // answers the correctness gates compared
	regs     *deltas
}

// phase sets up and drives one load phase. A tracer makes it the
// traced phase: handler spans, registry deltas and the ladder.
func phase(sp *spec, seed int64, d time.Duration, state string, tr *tracer) (*phaseResult, error) {
	if sp.name == "ingest" {
		rounds, setups, err := runIngest(state, sp, seed, d, tr)
		pr := &phaseResult{ld: &load{}, setups: setups, rounds: rounds, regs: &deltas{}}
		for _, rd := range rounds {
			pr.segments = append(pr.segments, rd.ld)
			pr.ld.merge(rd.ld)
			pr.checked += rd.checked
			pr.regs.merge(rd.regs)
		}
		return pr, err
	}
	f, setups, err := setupFixtures(sp, minSetups-minSetups/2, tr.wrapper())
	if err != nil {
		return nil, err
	}
	pr := &phaseResult{fixture: f, setups: setups, regs: &deltas{}}
	var exp *expected
	if sp.weight[kUpdate] == 0 {
		if exp, err = f.expected(); err != nil {
			return pr, err
		}
	}
	before := hybridstore.Metrics()
	pr.ld, err = f.drive(seed, d, tr, exp)
	pr.segments = []*load{pr.ld}
	pr.regs.add(before, hybridstore.Metrics())
	if err != nil {
		return pr, err
	}
	if pr.checked, err = f.gate(seed); err != nil {
		return pr, err
	}
	g, more, err := setupFixtures(sp, minSetups/2, nil)
	if err != nil {
		return pr, err
	}
	g.free()
	pr.setups = append(pr.setups, more...)
	if tr != nil {
		err = tr.ladderFixed(f, seed)
	}
	return pr, err
}

// plainRun is the untraced run: the end-to-end metrics.
func plainRun(sp *spec, seed int64, d time.Duration, state string) (*result, error) {
	pr, err := phase(sp, seed, d, state, nil)
	if pr != nil && pr.fixture != nil {
		defer pr.fixture.free()
	}
	if pr == nil || pr.ld == nil {
		return nil, err
	}
	res := &result{Attempted: pr.ld.ops + pr.ld.failed, Failed: pr.ld.failed, Metrics: map[string]metric{}}
	if err != nil {
		return res, err
	}
	add := func(n, unit string, v float64) { res.Metrics[n] = metric{v, unit} }
	// Ingest reports the median of its per-round values, so a round that
	// met a burst of CPU steal or disk latency does not move the run's
	// figure. Dashboard's and htap's whole measured phase is one segment.
	var vals [3][]float64
	names := [3]string{"ops_per_s", "read_p50_us", "write_p50_us"}
	for _, seg := range pr.segments {
		vals[0] = append(vals[0], seg.opsPerS())
		for i, s := range []samples{seg.reads(), seg.lat[cWrite]} {
			v, err := checkedQuantile(names[i+1], s.sorted(), 0.5)
			if err != nil {
				return res, err
			}
			vals[i+1] = append(vals[i+1], v)
		}
	}
	for i, n := range names {
		unit := "us"
		if i == 0 {
			unit = "ops/s"
		}
		add(n, unit, median(vals[i]))
	}
	add("setup_s", "s", medianDur(pr.setups)/1e6)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d segments, gates compared %d answers, set-ups %v\n", sp.name, len(pr.segments), pr.checked, pr.setups)
	for c := range pr.ld.lat {
		s := pr.ld.lat[c].sorted()
		fmt.Fprintf(os.Stderr, "perfbench: %s %-5s samples %7d  p50 %9.1f  p95 %9.1f  p99 %9.1f  max %9.1f us\n",
			sp.name, className[c], len(s), us(s.quantile(0.5)), us(s.quantile(0.95)), us(s.quantile(0.99)), us(s.quantile(1)))
	}
	return res, nil
}

// tracedRun runs an untraced phase and then a traced phase of the same
// workload and seed, each for half of d, and reports the traced
// phase's per-layer metrics. Spans are written under state/trace.
func tracedRun(sp *spec, seed int64, d time.Duration, state string) (*result, error) {
	plain, err := phase(sp, seed, d/2, state, nil)
	if plain != nil && plain.fixture != nil {
		plain.fixture.free()
	}
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}
	tr := newTracer()
	traced, err := phase(sp, seed, d/2, state, tr)
	if traced != nil && traced.fixture != nil {
		defer traced.fixture.free()
	}
	if traced == nil || traced.ld == nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	res := &result{
		Attempted: plain.ld.ops + traced.ld.ops + traced.ld.failed,
		Failed:    traced.ld.failed,
		Metrics:   map[string]metric{},
	}
	if err != nil {
		return res, fmt.Errorf("traced phase: %w", err)
	}
	m := map[string]float64{}
	for c := range className {
		m["client."+className[c]+"_p50_us"] = us(plain.ld.lat[c].sorted().quantile(0.5))
	}
	tail, err := checkedQuantile("client.read_tail_us", plain.ld.reads().sorted(), sp.tail)
	if err != nil {
		return res, err
	}
	m["client.read_tail_us"] = tail
	m["trace.overhead_frac"] = 1 - traced.ld.opsPerS()/plain.ld.opsPerS()
	tr.spanLayers(m)
	registryLayers(m, traced.regs, traced.ld)
	tr.ladderLayers(m)
	var pending, recover, stored, ckptBytes, replay []float64
	if f := traced.fixture; f != nil {
		pending = f.pending
	}
	for _, rd := range traced.rounds {
		pending = append(pending, float64(rd.pending))
		recover = append(recover, rd.recover.Seconds())
		stored = append(stored, rd.stored)
		ckptBytes = append(ckptBytes, float64(rd.ckptBytes))
		replay = append(replay, frac(float64(rd.tail), rd.recover.Seconds()))
	}
	m["core.pending_versions"] = median(pending)
	m["wal.recover_s"] = median(recover)
	m["wal.stored_bytes_per_user_byte"] = median(stored)
	m["wal.checkpoint_bytes"] = median(ckptBytes)
	m["wal.replay_records_per_s"] = median(replay)
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			return res, fmt.Errorf("per-layer metric %s was not computed", pl.name)
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
	}
	path := filepath.Join(state, "trace", fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
	if err := tr.write(path); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return res, nil
}

// perLayer is every metric a traced run reports, with its unit. A
// metric of a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"client.write_p50_us", "us"},
	{"client.read_tail_us", "us"},
	{"client.point_p50_us", "us"},
	{"client.sum_p50_us", "us"},
	{"client.group_p50_us", "us"},
	{"trace.overhead_frac", "ratio"},
	{"transport.self_p50_us", "us"},
	{"server.handler_p50_us.write", "us"},
	{"server.handler_p50_us.point", "us"},
	{"server.handler_p50_us.sum", "us"},
	{"server.handler_p50_us.group", "us"},
	{"server.self_us.write", "us"},
	{"server.self_us.point", "us"},
	{"server.self_us.sum", "us"},
	{"server.self_us.group", "us"},
	{"server.cache.hit_frac.point", "ratio"},
	{"server.cache.hit_frac.sum", "ratio"},
	{"server.cache.hit_frac.group", "ratio"},
	{"server.batch.cohort_mean", "count"},
	{"server.gather.cohort_mean", "count"},
	{"rescache.hit_frac", "ratio"},
	{"rescache.stale_frac", "ratio"},
	{"rescache.evictions", "count"},
	{"rescache.probe_us", "us"},
	{"core.sum_where_us", "us"},
	{"core.group_us", "us"},
	{"core.get_us", "us"},
	{"core.update_us", "us"},
	{"core.insert_us", "us"},
	{"core.freezes", "count"},
	{"core.pending_versions", "count"},
	{"core.merge_ms", "ms"},
	{"exec.sum_where_us", "us"},
	{"exec.group_us", "us"},
	{"exec.zonemap.pruned_frac", "ratio"},
	{"device.cache.hit_frac", "ratio"},
	{"device.h2d_bytes_per_scan", "bytes"},
	{"tx.commits", "count"},
	{"tx.conflict_frac", "ratio"},
	{"wal.group_size_mean", "count"},
	{"wal.bytes_per_write", "bytes"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.checkpoint_bytes", "bytes"},
	{"wal.replay_records_per_s", "1/s"},
	{"wal.recover_s", "s"},
	{"wal.stored_bytes_per_user_byte", "ratio"},
}
