// Command sttexplore runs the paper-reproduction experiments: every
// table and figure of "System level exploration of a STT-MRAM based
// Level 1 Data-Cache" (DATE 2015), plus the extension ablations.
//
// Usage:
//
//	sttexplore list
//	sttexplore run [-bench name,name] [-j N] [-v] [-csv] [-check] [-store DIR] <id>|all|paper
//	sttexplore dse [-space name] [-search exhaustive|guided] [-budget N] [-seed S] [-bench name,name] [-j N] [-v] [-csv] [-top N] [-check] [-store DIR] [-shard i/n]
//	sttexplore bench [-cfg sram|dropin|vwb|l0|emshr|bypass|hybrid] [-opt] [-n size] [-v] [-check] [-store DIR] <kernel>
//	sttexplore serve [-addr :8080] -store DIR [-workers N]
//	sttexplore worker -connect URL -store DIR
//	sttexplore submit -connect URL [-space name] [-shards N] [-format csv] [-top N]
//	sttexplore store -dir DIR stats|gc [-max-bytes B]
//
// run, dse and bench take -cpuprofile/-memprofile to write pprof
// profiles (see EXPERIMENTS.md "Profiling").
//
// serve/worker/submit are the sweep service (DESIGN.md §7.8): a
// coordinator that partitions exhaustive sweeps into shard leases,
// dispatches them to workers (local goroutines or external processes
// sharing only the persistent store), survives worker failure by
// heartbeat-deadline requeue, and serves final frontiers byte-identical
// to a single-process dse run.
//
// Examples:
//
//	sttexplore run fig1          # the drop-in motivation experiment
//	sttexplore run paper         # Table I + Figs. 1,3-9
//	sttexplore run -j 8 all      # paper artifacts + ablations, 8 workers
//	sttexplore dse -space smoke  # fast design-space sweep + Pareto frontier
//	sttexplore dse -space proposal -csv   # full ~240-point space, CSV dump
//	sttexplore dse -space hybrid # latency-hiding space: bypass/partition/shutdown
//	sttexplore dse -space mega -search guided -budget 64 -seed 1
//	                             # metaheuristic search over ~144k points
//	sttexplore bench -cfg vwb -opt gemm
//
// Simulations fan out over -j workers (default GOMAXPROCS); figures and
// design-space evaluations are bit-identical at any -j by the
// determinism contract (DESIGN.md §7).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sttdl1/internal/compile"
	"sttdl1/internal/dse"
	"sttdl1/internal/energy"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "dse":
		err = cmdDse(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sttexplore: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sttexplore:", err)
		os.Exit(1)
	}
}

func usage() { fmt.Fprintln(os.Stderr, usageText()) }

// usageText builds the help text from the same registries the commands
// resolve against — the bench configuration table and the built-in
// design spaces — so new entries appear here without a second edit. The
// drift test (main_test.go) additionally checks every registered
// command flag against this text.
func usageText() string {
	return fmt.Sprintf(`usage:
  sttexplore list
  sttexplore run [-bench a,b,...] [-j N] [-v] [-csv] [-check] [-store DIR] <id>|all|paper
  sttexplore dse [-space name] [-search exhaustive|guided] [-budget N] [-seed S] [-bench a,b,...] [-j N] [-v] [-csv] [-top N] [-check] [-store DIR] [-shard i/n]
  sttexplore bench [-cfg %s] [-opt] [-n size] [-v] [-check] [-store DIR] <kernel>
  sttexplore serve [-addr :8080] -store DIR [-workers N] [-j N] [-queue N] [-shards N] [-lease-ttl D] [-drain D] [-addr-file FILE] [-v]
  sttexplore worker -connect URL -store DIR [-name s] [-j N] [-poll D] [-v]
  sttexplore submit -connect URL [-space name] [-axes JSON] [-bench a,b,...] [-search mode] [-budget N] [-seed S] [-shards N] [-check] [-format csv|table|json] [-top N] [-wait=false] [-v]
  sttexplore store -dir DIR stats|gc [-max-bytes B]

run flags:
  -j N    run up to N simulations in parallel (0 = GOMAXPROCS);
          output is bit-identical at any -j
  -v      log each completed simulation + a final engine summary
  -csv    emit CSV instead of aligned tables
  -check  verify the timing contract (causality, clock monotonicity,
          shadow-state agreement) on every access; results unchanged,
          any violation fails the run
  -store DIR
          persistent evaluation store (all commands; default off): every
          finished simulation's counters are cached on disk, addressed
          by the content of the evaluation (compiled kernel and its
          initial data + canonical configuration + energy-model
          parameters + schema version); a warm hit skips trace capture
          and the timing model entirely. Results are byte-identical
          with or without it. Safe to share between concurrent
          processes.
  -cpuprofile/-memprofile FILE
          write pprof profiles (all commands)

dse flags:
  -space  built-in design space to explore (default smoke):
          %s
  -search exhaustive (default) evaluates every point; guided runs the
          frontier-guided metaheuristic (mutation/crossover of the
          Pareto archive + annealed random exploration, a truncated-
          replay cheap rung, early-abort full evaluations) — the only
          way through the ~144k-point mega space
  -budget guided: full-suite evaluation budget (default 64)
  -seed   guided: proposal RNG seed (default 1); equal seeds give
          bit-identical output at any -j
  -top N  keep only the N lowest-penalty rows of the frontier table
  -csv    dump every evaluated point (objectives, dominance rank) as CSV
  -shard i/n
          simulate only block i of n of the sweep's distinct
          configurations into the store (exhaustive + -store only;
          prints a summary, no frontier). Blocks are cut from whole warm
          groups, so each configuration is simulated by one shard and a
          warm group splits only at a block boundary. n processes with
          shards 0/n..n-1/n cover the space; a follow-up run without
          -shard stitches the full evaluation from the warm store,
          byte-identical to a single-process sweep
  -j/-v/-bench/-check/-store as for run

bench flags:
  -cfg    named configuration: %s
  -opt    apply all code transformations
  -n      problem size override (0 = benchmark default)
  -v      also print the configuration's technology model

serve flags (sweep-as-a-service; results byte-identical to dse):
  -addr   listen address (default :8080)
  -store  shared persistent store directory (required) — workers and the
          final stitch coordinate through it, nothing else
  -workers
          local worker goroutines (default 1; 0 = coordinator only,
          external 'sttexplore worker' processes pull shards instead)
  -queue  max queued+running jobs; beyond it submissions answer 429
  -shards default shard count for jobs that don't choose one
  -lease-ttl
          heartbeat deadline per shard lease; a silent worker's shard
          requeues and its successor resumes from the warm store
  -drain  SIGINT/SIGTERM grace for leased shards before requeuing
  -addr-file
          write the resolved host:port to FILE once serving (scripts)

worker flags:
  -connect  server base URL or host:port (required)
  -name     worker name in leases and events (default worker-<pid>)
  -poll     longest a lease request waits on the server for work
            (0 = 200ms); also the back-off after a failed request
  -store/-j as for serve

submit flags (job client):
  -connect  server base URL or host:port (required)
  -axes     restrict axes to value subsets, as JSON:
            '{"front-end":["vwb","direct"]}'
  -format   result format: csv (dse -csv bytes), table, json
  -top N    fetch only the first N result rows (the server pages with
            ?offset=/?limit=; a fetched page says what it omitted)
  -wait     follow the job and print its result (default true;
            -wait=false prints the job id and exits)
  -space/-bench/-search/-budget/-seed/-shards/-check as for dse

store verbs (maintenance of a -store directory):
  stats   deep-scan: record count, bytes, corrupt entries healed
  gc      evict oldest records until at or under -max-bytes
  -dir    store directory (required)
  -max-bytes
          gc byte budget (required for gc; 0 empties the store)`,
		strings.Join(benchConfigNames(), "|"),
		strings.Join(dse.Names(), ", "),
		strings.Join(benchConfigNames(), ", "))
}

// benchConfigs is the `sttexplore bench -cfg` registry, in the order
// usage lists it. bypass is the prediction-driven NVM read bypass and
// hybrid stacks all three latency-hiding mechanisms (bypass front-end,
// 1 SRAM way, dynamic way shutdown) on the STT-MRAM DL1.
var benchConfigs = []struct {
	name string
	make func() sim.Config
}{
	{"sram", sim.BaselineSRAM},
	{"dropin", sim.DropInSTT},
	{"vwb", sim.ProposalVWB},
	{"l0", func() sim.Config {
		cfg := sim.ProposalVWB()
		cfg.FrontEnd = sim.FEL0
		cfg.Name = "stt-l0"
		return cfg
	}},
	{"emshr", func() sim.Config {
		cfg := sim.ProposalVWB()
		cfg.FrontEnd = sim.FEEMSHR
		cfg.Name = "stt-emshr"
		return cfg
	}},
	{"bypass", func() sim.Config {
		cfg := sim.ProposalVWB()
		cfg.FrontEnd = sim.FEBypass
		cfg.Name = "stt-bypass"
		return cfg
	}},
	{"hybrid", func() sim.Config {
		cfg := sim.ProposalVWB()
		cfg.FrontEnd = sim.FEBypass
		cfg.SRAMWays = 1
		cfg.ShutdownInterval = 4096
		cfg.Name = "stt-hybrid"
		return cfg
	}},
}

func benchConfigNames() []string {
	out := make([]string, len(benchConfigs))
	for i, c := range benchConfigs {
		out[i] = c.name
	}
	return out
}

// profileFlags registers the shared pprof flags (-cpuprofile,
// -memprofile) on a command's flag set and returns a start function
// whose stop must run before the process exits (see EXPERIMENTS.md
// "Profiling").
func profileFlags(fs *flag.FlagSet) func() (stop func() error, err error) {
	cpuOut := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memOut := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	return func() (func() error, error) {
		var cpuFile *os.File
		if *cpuOut != "" {
			f, err := os.Create(*cpuOut)
			if err != nil {
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, fmt.Errorf("cpuprofile: %w", err)
			}
			cpuFile = f
		}
		return func() error {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					return err
				}
			}
			if *memOut != "" {
				f, err := os.Create(*memOut)
				if err != nil {
					return fmt.Errorf("memprofile: %w", err)
				}
				defer f.Close()
				runtime.GC() // up-to-date allocation stats
				if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
					return fmt.Errorf("memprofile: %w", err)
				}
			}
			return nil
		}, nil
	}
}

// storeFlag registers -store on a command's flag set and returns an
// opener for the persistent evaluation store (nil store when the flag
// is unset).
func storeFlag(fs *flag.FlagSet) func() (*store.Store, error) {
	dir := fs.String("store", "", "persistent evaluation store directory (default off); warm hits skip the timing model, results are byte-identical either way")
	return func() (*store.Store, error) {
		if *dir == "" {
			return nil, nil
		}
		return store.Open(*dir)
	}
}

// reportStore prints the store's counter summary to stderr after a run
// with an attached store.
func reportStore(suite *experiments.Suite, st *store.Store) {
	if st != nil {
		fmt.Fprintf(os.Stderr, "store: %s, %d capture(s), %d warm-up(s)\n", suite.StoreStats(), suite.Captures(), suite.WarmUps())
	}
}

func cmdList() error {
	fmt.Println("experiments:")
	for _, r := range experiments.Registry() {
		tag := "ext  "
		if r.Paper {
			tag = "paper"
		}
		fmt.Printf("  %-20s [%s] %s\n", r.ID, tag, r.Desc)
	}
	fmt.Println("\ndesign spaces (sttexplore dse -space <name>):")
	for _, sp := range dse.Spaces() {
		// CountUpTo sizes the space without materializing it, and the cap
		// keeps the listing cheap: CountUpTo(0) would walk every point of
		// the >10^5-point mega space just to print its size.
		const listCountCap = 100000
		n := sp.CountUpTo(listCountCap)
		count := fmt.Sprintf("%d", n)
		// Spaces small enough to enumerate partition into dse -shard /
		// serve worker leases; anything at the cap is guided-search only.
		mode := "shardable"
		if n >= listCountCap {
			count = fmt.Sprintf("≥%d", listCountCap)
			mode = "guided-only"
		}
		fmt.Printf("  %-20s %7s point(s)  %-11s %s\n", sp.Name, count, mode, sp.Desc)
	}
	fmt.Println("\nbenchmarks:")
	for _, b := range polybench.All() {
		fmt.Printf("  %-10s n=%-4d %s\n", b.Name, b.Default, b.Desc)
	}
	return nil
}

// Flag-set constructors. Each command builds its set through one of
// these, and the usage drift test enumerates them (commandFlagSets) to
// check the help text — registering a flag without mentioning it in
// usageText fails the test.

type runFlagVals struct {
	benchList *string
	verbose   *bool
	csv       *bool
	jobs      *int
	checked   *bool
	storeOpen func() (*store.Store, error)
	profile   func() (func() error, error)
}

func newRunFlagSet() (*flag.FlagSet, *runFlagVals) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	v := &runFlagVals{
		benchList: fs.String("bench", "", "comma-separated benchmark subset (default: all)"),
		verbose:   fs.Bool("v", false, "log each simulation"),
		csv:       fs.Bool("csv", false, "emit CSV instead of aligned tables"),
		jobs:      fs.Int("j", 0, "parallel simulations (0 = GOMAXPROCS); output is identical at any -j"),
		checked:   fs.Bool("check", false, "run every simulation under the timing-contract oracle"),
	}
	v.storeOpen = storeFlag(fs)
	v.profile = profileFlags(fs)
	return fs, v
}

type dseFlagVals struct {
	runFlagVals
	spaceName  *string
	top        *int
	searchMode *string
	budget     *int
	seed       *int64
	shard      *string
}

func newDseFlagSet() (*flag.FlagSet, *dseFlagVals) {
	fs := flag.NewFlagSet("dse", flag.ExitOnError)
	v := &dseFlagVals{
		spaceName:  fs.String("space", "smoke", "built-in design space (see 'sttexplore list')"),
		top:        fs.Int("top", 0, "keep only the N lowest-penalty frontier rows (0 = all)"),
		searchMode: fs.String("search", "exhaustive", "exploration strategy: exhaustive, or guided (frontier-guided metaheuristic with a full-evaluation budget)"),
		budget:     fs.Int("budget", 64, "guided search: full-suite evaluation budget"),
		seed:       fs.Int64("seed", 1, "guided search: proposal RNG seed (printed in the report header)"),
		shard:      fs.String("shard", "", "simulate only block i of n of the sweep's distinct configurations, cut from whole warm groups, into the store (exhaustive + -store only)"),
	}
	v.benchList = fs.String("bench", "", "comma-separated benchmark subset (default: all)")
	v.verbose = fs.Bool("v", false, "log each simulation")
	v.csv = fs.Bool("csv", false, "dump every evaluated point as CSV instead of the frontier table")
	v.jobs = fs.Int("j", 0, "parallel simulations (0 = GOMAXPROCS); output is identical at any -j")
	v.checked = fs.Bool("check", false, "run every simulation under the timing-contract oracle")
	v.storeOpen = storeFlag(fs)
	v.profile = profileFlags(fs)
	return fs, v
}

type benchFlagVals struct {
	cfgName   *string
	opt       *bool
	size      *int
	verbose   *bool
	checked   *bool
	storeOpen func() (*store.Store, error)
	profile   func() (func() error, error)
}

func newBenchFlagSet() (*flag.FlagSet, *benchFlagVals) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	v := &benchFlagVals{
		cfgName: fs.String("cfg", "vwb", "named configuration (see usage for the list)"),
		opt:     fs.Bool("opt", false, "apply all code transformations"),
		size:    fs.Int("n", 0, "problem size override (0 = benchmark default)"),
		verbose: fs.Bool("v", false, "also print the configuration's technology model"),
		checked: fs.Bool("check", false, "run under the timing-contract oracle"),
	}
	v.storeOpen = storeFlag(fs)
	v.profile = profileFlags(fs)
	return fs, v
}

// commandFlagSets enumerates every subcommand's flag set for the usage
// drift test.
func commandFlagSets() map[string]*flag.FlagSet {
	rfs, _ := newRunFlagSet()
	dfs, _ := newDseFlagSet()
	bfs, _ := newBenchFlagSet()
	svfs, _ := newServeFlagSet()
	wfs, _ := newWorkerFlagSet()
	sbfs, _ := newSubmitFlagSet()
	stfs, _ := newStoreFlagSet()
	return map[string]*flag.FlagSet{
		"run": rfs, "dse": dfs, "bench": bfs,
		"serve": svfs, "worker": wfs, "submit": sbfs, "store": stfs,
	}
}

func cmdRun(args []string) error {
	fs, v := newRunFlagSet()
	benchList, verbose, csv := v.benchList, v.verbose, v.csv
	jobs, checked := v.jobs, v.checked
	profile := v.profile
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need exactly one experiment id (or 'all'/'paper'); see 'sttexplore list'")
	}
	stopProfile, err := profile()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfile(); perr != nil {
			fmt.Fprintln(os.Stderr, "sttexplore:", perr)
		}
	}()

	benches, err := selectBenches(*benchList)
	if err != nil {
		return err
	}
	st, err := v.storeOpen()
	if err != nil {
		return err
	}
	suite := experiments.NewSuiteJobs(benches, *jobs).WithCheck(*checked)
	suite.SetStore(st)
	var counters stats.Counters
	progress := newProgressLine(os.Stderr, *verbose)
	suite.SetProgress(func(ev stats.RunEvent) {
		counters.Observe(ev)
		progress.observe(ev)
	})

	id := fs.Arg(0)
	var runners []experiments.Runner
	switch id {
	case "all":
		runners = experiments.Registry()
	case "paper":
		for _, r := range experiments.Registry() {
			if r.Paper {
				runners = append(runners, r)
			}
		}
	default:
		r, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q; known: %s", id, strings.Join(experiments.IDs(), ", "))
		}
		runners = []experiments.Runner{r}
	}

	start := time.Now()
	results, err := experiments.Results(context.Background(), suite, runners)
	progress.clear()
	if err != nil {
		return err
	}
	for i, r := range runners {
		if *csv {
			fmt.Printf("# %s\n%s\n", r.ID, results[i].CSV())
		} else {
			fmt.Println(results[i].String())
		}
	}
	reportStore(suite, st)
	if *verbose {
		fmt.Fprintf(os.Stderr, "engine: %s over %d worker(s), wall %s\n",
			counters.Summary(), suite.Jobs(), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// cmdDse explores a built-in design space: enumerate, evaluate every
// point over the suite through the memoized parallel engine, and print
// the Pareto frontier (or, with -csv, the full point dump). Output is
// bit-identical at any -j.
func cmdDse(args []string) error {
	fs, v := newDseFlagSet()
	spaceName, benchList, verbose, csv := v.spaceName, v.benchList, v.verbose, v.csv
	top, jobs, searchMode := v.top, v.jobs, v.searchMode
	budget, seed, checked := v.budget, v.seed, v.checked
	profile := v.profile
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("dse: unexpected argument %q (the space is selected with -space)", fs.Arg(0))
	}
	stopProfile, err := profile()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfile(); perr != nil {
			fmt.Fprintln(os.Stderr, "sttexplore:", perr)
		}
	}()
	sp, ok := dse.ByName(*spaceName)
	if !ok {
		return fmt.Errorf("unknown design space %q; known: %s", *spaceName, strings.Join(dse.Names(), ", "))
	}
	benches, err := selectBenches(*benchList)
	if err != nil {
		return err
	}
	sh, err := dse.ParseShard(*v.shard)
	if err != nil {
		return err
	}
	st, err := v.storeOpen()
	if err != nil {
		return err
	}
	if sh.Enabled() {
		if *searchMode != "exhaustive" {
			return fmt.Errorf("-shard needs -search exhaustive (got %q): guided search is sequential by nature", *searchMode)
		}
		if st == nil {
			return fmt.Errorf("-shard needs -store: shards coordinate only through the persistent store")
		}
	}

	suite := experiments.NewSuiteJobs(benches, *jobs).WithCheck(*checked)
	suite.SetStore(st)
	var counters stats.Counters
	progress := newProgressLine(os.Stderr, *verbose)
	suite.SetProgress(func(ev stats.RunEvent) {
		counters.Observe(ev)
		progress.observe(ev)
	})

	start := time.Now()
	switch *searchMode {
	case "exhaustive":
		if sh.Enabled() {
			res, err := dse.EvaluateShard(suite, benches, sp, sh)
			progress.clear()
			if err != nil {
				return err
			}
			fmt.Println(res)
			break
		}
		ev, err := dse.Evaluate(suite, benches, sp)
		progress.clear()
		if err != nil {
			return err
		}
		if *csv {
			fmt.Printf("# dse-%s\n%s\n", sp.Name, ev.PointsTable().CSV())
		} else {
			fmt.Println(ev.FrontierTable(*top).Render())
		}
	case "guided":
		opts := dse.SearchOptions{Budget: *budget, Seed: *seed}
		if *verbose {
			opts.Progress = func(ev stats.SearchEvent) {
				fmt.Fprintf(os.Stderr, "  gen %-3d %2d candidate(s), %2d promoted, %2d aborted  [%d/%d full evals, archive %d, frontier %d]\n",
					ev.Generation, ev.Candidates, ev.Promoted, ev.Aborted,
					ev.FullEvals, ev.Budget, ev.Archive, ev.Frontier)
			}
		}
		res, err := dse.Search(suite, benches, sp, opts)
		progress.clear()
		if err != nil {
			return err
		}
		if *csv {
			// The CSV body carries no table header, so name the inputs —
			// the effective seed above all — in the comment line.
			fmt.Printf("# dse-%s guided search: seed %d, budget %d\n%s\n",
				sp.Name, res.Seed, res.Budget, res.PointsTable().CSV())
		} else {
			fmt.Println(res.FrontierTable(*top).Render())
		}
	default:
		return fmt.Errorf("-search must be exhaustive or guided (got %q)", *searchMode)
	}
	reportStore(suite, st)
	if *verbose {
		fmt.Fprintf(os.Stderr, "engine: %s over %d worker(s), wall %s\n",
			counters.Summary(), suite.Jobs(), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// progressLine renders engine progress on stderr: one log line per
// completed simulation in verbose mode, otherwise a single in-place
// live line (only when stderr is a terminal).
type progressLine struct {
	w       *os.File
	verbose bool
	live    bool
	width   int
}

func newProgressLine(w *os.File, verbose bool) *progressLine {
	live := false
	if st, err := w.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
		live = !verbose
	}
	return &progressLine{w: w, verbose: verbose, live: live}
}

// observe is called serially by the run engine (stats.ProgressFunc).
func (p *progressLine) observe(ev stats.RunEvent) {
	if p.verbose {
		fmt.Fprintf(p.w, "  ran %-44s %8s  [%d done, %d running, %d queued]\n",
			ev.Label, ev.Wall.Round(time.Millisecond), ev.Done, ev.InFlight, ev.Queued)
		return
	}
	if !p.live {
		return
	}
	line := fmt.Sprintf("  %d sims done, %d running, %d queued — last %s (%s)",
		ev.Done, ev.InFlight, ev.Queued, ev.Label, ev.Wall.Round(time.Millisecond))
	pad := p.width - len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(p.w, "\r%s%s", line, strings.Repeat(" ", pad))
	p.width = len(line)
}

// clear erases the live line before the results are printed.
func (p *progressLine) clear() {
	if p.live && p.width > 0 {
		fmt.Fprintf(p.w, "\r%s\r", strings.Repeat(" ", p.width))
		p.width = 0
	}
}

func cmdBench(args []string) error {
	fs, v := newBenchFlagSet()
	cfgName, opt, size := v.cfgName, v.opt, v.size
	verbose, checked := v.verbose, v.checked
	profile := v.profile
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("bench: need exactly one kernel name; see 'sttexplore list'")
	}
	if *size < 0 {
		return fmt.Errorf("bench: problem size -n %d is negative", *size)
	}
	stopProfile, err := profile()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfile(); perr != nil {
			fmt.Fprintln(os.Stderr, "sttexplore:", perr)
		}
	}()
	b, ok := polybench.ByName(fs.Arg(0))
	if !ok {
		return fmt.Errorf("unknown benchmark %q; known: %s", fs.Arg(0), strings.Join(polybench.Names(), ", "))
	}

	var cfg sim.Config
	found := false
	for _, c := range benchConfigs {
		if c.name == *cfgName {
			cfg = c.make()
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown configuration %q; known: %s", *cfgName, strings.Join(benchConfigNames(), ", "))
	}
	if *opt {
		cfg.Compile = compile.AllOptimizations()
	}
	cfg.Check = *checked

	n := b.Default
	if *size > 0 {
		n = *size
	}
	b.Default = n // Kernel() and every cache key follow the size
	st, err := v.storeOpen()
	if err != nil {
		return err
	}
	// One-simulation suite: the engine plumbing exists purely so the
	// persistent store tier behaves exactly as in run/dse.
	suite := experiments.NewSuiteJobs([]polybench.Bench{b}, 1)
	suite.SetStore(st)
	res, err := suite.Run(b, cfg)
	if err != nil {
		return err
	}
	reportStore(suite, st)
	c := res.CPU
	fmt.Printf("%s (n=%d) on %s\n", b.Name, n, cfg.Name)
	if *verbose {
		m, merr := energy.ModelFor(cfg)
		if merr != nil {
			return merr
		}
		freq := cfg.FreqGHz
		if freq <= 0 {
			freq = 1.0
		}
		rd, wr := m.CyclesAt(freq)
		fmt.Printf("  DL1 array:   %s  read %.3fns/%dcy  write %.3fns/%dcy  leak %.2fmW  area %.4fmm2\n",
			cfg.DL1Cell, m.ReadNs, rd, m.WriteNs, wr, m.LeakageMW, m.AreaMM2)
	}
	fmt.Printf("  cycles       %12d   instructions %12d   IPC %.3f\n", c.Cycles, c.Insts, c.IPC())
	fmt.Printf("  loads        %12d   stores       %12d   prefetches %d\n", c.Loads, c.Stores, c.Prefetches)
	fmt.Printf("  branches     %12d   mispredicts  %12d\n", c.Branches, c.Mispredicts)
	fmt.Printf("  stalls: read %d  write %d  branch %d  fetch %d\n",
		c.ReadStallCycles, c.WriteStallCycles, c.BranchStallCycles, c.FetchStallCycles)
	fmt.Printf("  front-end:   reads %d/%d hits, writes %d/%d hits\n",
		res.FEStats.ReadHits, res.FEStats.Reads, res.FEStats.WriteHits, res.FEStats.Writes)
	fmt.Printf("  DL1:         %d accesses, %.1f%% hits, bank-conflict cycles %d\n",
		res.DL1Stats.Accesses(), 100*res.DL1Stats.HitRate(), res.DL1BankConflictCycles)
	fmt.Printf("  L2:          %d accesses, %.1f%% hits\n", res.L2Stats.Accesses(), 100*res.L2Stats.HitRate())
	return nil
}

func selectBenches(list string) ([]polybench.Bench, error) {
	if list == "" {
		return nil, nil
	}
	var out []polybench.Bench
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		b, ok := polybench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q; known: %s", name, strings.Join(polybench.Names(), ", "))
		}
		out = append(out, b)
	}
	return out, nil
}
