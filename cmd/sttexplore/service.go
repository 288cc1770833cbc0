package main

// The sweep-service subcommands (DESIGN.md §7.8): serve runs the
// coordinator (plus optional local workers), worker joins a running
// server from another process or machine, submit is the job client, and
// store maintains a persistent evaluation store directory. All four
// resolve spaces and benchmarks against the same registries as dse, and
// a served job's result is byte-identical to the corresponding
// single-process `sttexplore dse` run.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"sttdl1/internal/serve"
	"sttdl1/internal/store"
)

type serveFlagVals struct {
	addr     *string
	storeDir *string
	workers  *int
	jobs     *int
	queue    *int
	shards   *int
	leaseTTL *time.Duration
	drain    *time.Duration
	addrFile *string
	verbose  *bool
}

func newServeFlagSet() (*flag.FlagSet, *serveFlagVals) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	v := &serveFlagVals{
		addr:     fs.String("addr", ":8080", "listen address"),
		storeDir: fs.String("store", "", "persistent evaluation store directory (required; workers coordinate through it)"),
		workers:  fs.Int("workers", 1, "local worker goroutines (0 = coordinator only, external workers connect with 'sttexplore worker')"),
		jobs:     fs.Int("j", 0, "parallel simulations per worker and for the stitch (0 = GOMAXPROCS)"),
		queue:    fs.Int("queue", 0, "max jobs queued or running; submissions beyond answer 429 (0 = 16)"),
		shards:   fs.Int("shards", 0, "default shard count for jobs that don't choose one (0 = 1)"),
		leaseTTL: fs.Duration("lease-ttl", 0, "heartbeat deadline per shard lease; an expired lease requeues its shard (0 = 15s)"),
		drain:    fs.Duration("drain", 30*time.Second, "on SIGINT/SIGTERM, wait this long for leased shards to finish before requeuing them"),
		addrFile: fs.String("addr-file", "", "write the resolved listen address (host:port) to this file once serving"),
		verbose:  fs.Bool("v", false, "log jobs, leases and requeues"),
	}
	return fs, v
}

type workerFlagVals struct {
	connect  *string
	storeDir *string
	name     *string
	jobs     *int
	poll     *time.Duration
	verbose  *bool
}

func newWorkerFlagSet() (*flag.FlagSet, *workerFlagVals) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	v := &workerFlagVals{
		connect:  fs.String("connect", "", "server base URL or host:port (required)"),
		storeDir: fs.String("store", "", "persistent evaluation store directory shared with the server (required)"),
		name:     fs.String("name", "", "worker name in leases and events (default worker-<pid>)"),
		jobs:     fs.Int("j", 0, "parallel simulations (0 = GOMAXPROCS)"),
		poll:     fs.Duration("poll", 0, "longest a lease request waits on the server for work (0 = 200ms); also the back-off after a failed request"),
		verbose:  fs.Bool("v", false, "log leases and shard outcomes"),
	}
	return fs, v
}

type storeFlagVals struct {
	dir      *string
	maxBytes *int64
}

func newStoreFlagSet() (*flag.FlagSet, *storeFlagVals) {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	v := &storeFlagVals{
		dir:      fs.String("dir", "", "store directory (required)"),
		maxBytes: fs.Int64("max-bytes", -1, "gc: evict oldest records until the store is at or under this many bytes (required for gc; 0 empties the store)"),
	}
	return fs, v
}

type submitFlagVals struct {
	connect   *string
	space     *string
	axes      *string
	benchList *string
	search    *string
	budget    *int
	seed      *int64
	shards    *int
	check     *bool
	format    *string
	top       *int
	wait      *bool
	verbose   *bool
}

func newSubmitFlagSet() (*flag.FlagSet, *submitFlagVals) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	v := &submitFlagVals{
		connect:   fs.String("connect", "", "server base URL or host:port (required)"),
		space:     fs.String("space", "", "built-in design space (server default: smoke)"),
		axes:      fs.String("axes", "", `restrict axes to value-label subsets, as JSON: '{"front-end":["vwb","direct"]}'`),
		benchList: fs.String("bench", "", "comma-separated benchmark subset (default: all)"),
		search:    fs.String("search", "", "exhaustive or guided (server default: exhaustive)"),
		budget:    fs.Int("budget", 0, "guided: full-suite evaluation budget (server default: 64)"),
		seed:      fs.Int64("seed", 0, "guided: proposal RNG seed (server default: 1)"),
		shards:    fs.Int("shards", 0, "partition the exhaustive sweep into this many worker leases (0 = server default)"),
		check:     fs.Bool("check", false, "run every simulation under the timing-contract oracle"),
		format:    fs.String("format", "csv", "result format: csv, table or json"),
		top:       fs.Int("top", 0, "fetch only the first N result rows (server-side ?limit= paging; 0 = all)"),
		wait:      fs.Bool("wait", true, "follow the job and print its result (false: print the job id and exit)"),
		verbose:   fs.Bool("v", false, "stream job events to stderr while waiting"),
	}
	return fs, v
}

// serviceURL normalizes a -connect value to a base URL.
func serviceURL(connect string) string {
	if strings.Contains(connect, "://") {
		return strings.TrimSuffix(connect, "/")
	}
	return "http://" + connect
}

// clientAddr rewrites a wildcard listen address to a dialable loopback
// one (":8080" listens on every interface; a client needs a host).
func clientAddr(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return addr.String()
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

func serveLogf(verbose bool) func(string, ...any) {
	if !verbose {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
	}
}

func cmdServe(args []string) error {
	fs, v := newServeFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	if *v.storeDir == "" {
		return fmt.Errorf("serve: -store is required (workers and the stitch coordinate through it)")
	}
	st, err := store.Open(*v.storeDir)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Store:         st,
		Jobs:          *v.jobs,
		Queue:         *v.queue,
		LeaseTTL:      *v.leaseTTL,
		DefaultShards: *v.shards,
		Logf:          serveLogf(*v.verbose),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *v.addr)
	if err != nil {
		return err
	}
	addr := clientAddr(ln.Addr())
	if *v.addrFile != "" {
		if err := os.WriteFile(*v.addrFile, []byte(addr+"\n"), 0o666); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "sttexplore serve: listening on %s (store %s, %d local worker(s))\n",
		addr, *v.storeDir, *v.workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var wg sync.WaitGroup
	for i := 0; i < *v.workers; i++ {
		w := &serve.Worker{
			URL:   "http://" + addr,
			Store: st,
			Name:  fmt.Sprintf("local-%d", i),
			Jobs:  *v.jobs,
			Logf:  serveLogf(*v.verbose),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if werr := w.Run(ctx); werr != nil {
				fmt.Fprintln(os.Stderr, "sttexplore:", werr)
			}
		}()
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		stop()
		wg.Wait()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: refuse new work, give leased shards -drain to
	// finish (requeued leftovers die with the process — their published
	// results survive in the store, so a resubmission resumes warm).
	fmt.Fprintln(os.Stderr, "sttexplore serve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *v.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "sttexplore serve: drain deadline passed, leased shards requeued\n")
	}
	wg.Wait()
	closeCtx, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	hs.Shutdown(closeCtx)
	return nil
}

func cmdWorker(args []string) error {
	fs, v := newWorkerFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("worker: unexpected argument %q", fs.Arg(0))
	}
	if *v.connect == "" {
		return fmt.Errorf("worker: -connect is required")
	}
	if *v.storeDir == "" {
		return fmt.Errorf("worker: -store is required (results flow through the shared store)")
	}
	st, err := store.Open(*v.storeDir)
	if err != nil {
		return err
	}
	name := *v.name
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &serve.Worker{
		URL:   serviceURL(*v.connect),
		Store: st,
		Name:  name,
		Jobs:  *v.jobs,
		Poll:  *v.poll,
		Logf:  serveLogf(*v.verbose),
	}
	fmt.Fprintf(os.Stderr, "sttexplore worker: %s pulling from %s\n", name, serviceURL(*v.connect))
	return w.Run(ctx)
}

// cmdStore maintains a store directory: `store -dir DIR stats` deep-
// scans (healing corrupt entries), `store -dir DIR gc -max-bytes B`
// evicts oldest-first down to the byte budget. Flags may precede or
// follow the verb.
func cmdStore(args []string) error {
	fs, v := newStoreFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("store: need a verb: stats or gc")
	}
	verb := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("store: unexpected argument %q", fs.Arg(0))
	}
	if *v.dir == "" {
		return fmt.Errorf("store: -dir is required")
	}
	st, err := store.Open(*v.dir)
	if err != nil {
		return err
	}
	switch verb {
	case "stats":
		d, err := st.Verify()
		if err != nil {
			return err
		}
		fmt.Printf("store %s: %s\n", *v.dir, d)
	case "gc":
		if *v.maxBytes < 0 {
			return fmt.Errorf("store gc: -max-bytes is required (0 empties the store)")
		}
		res, err := st.GC(*v.maxBytes)
		if err != nil {
			return err
		}
		fmt.Printf("store %s: %s\n", *v.dir, res)
	default:
		return fmt.Errorf("store: unknown verb %q (want stats or gc)", verb)
	}
	return nil
}

func cmdSubmit(args []string) error {
	fs, v := newSubmitFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("submit: unexpected argument %q", fs.Arg(0))
	}
	if *v.connect == "" {
		return fmt.Errorf("submit: -connect is required")
	}
	base := serviceURL(*v.connect)

	req := serve.JobRequest{
		Space:  *v.space,
		Search: *v.search,
		Budget: *v.budget,
		Seed:   *v.seed,
		Shards: *v.shards,
		Check:  *v.check,
	}
	if *v.axes != "" {
		if err := json.Unmarshal([]byte(*v.axes), &req.Axes); err != nil {
			return fmt.Errorf("submit: -axes: %w", err)
		}
	}
	if *v.benchList != "" {
		for _, name := range strings.Split(*v.benchList, ",") {
			req.Benches = append(req.Benches, strings.TrimSpace(name))
		}
	}

	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	js, err := decodeJob(resp, http.StatusAccepted)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(os.Stderr, "submitted %s: space %s, %s, %d shard(s)\n",
		js.ID, js.Space, js.Search, js.Shards.Total)
	if !*v.wait {
		fmt.Println(js.ID)
		return nil
	}

	// The event stream is the wait: the server closes it after the
	// terminal event.
	if err := followEvents(base, js.ID, *v.verbose); err != nil {
		return err
	}
	for {
		resp, err := http.Get(base + "/v1/jobs/" + js.ID)
		if err != nil {
			return err
		}
		st, err := decodeJob(resp, http.StatusOK)
		if err != nil {
			return err
		}
		switch st.State {
		case "done":
			return printResult(base, js.ID, *v.format, *v.top)
		case "failed":
			return fmt.Errorf("job %s failed: %s", js.ID, st.Error)
		case "canceled":
			return fmt.Errorf("job %s was canceled", js.ID)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func decodeJob(resp *http.Response, want int) (serve.JobStatus, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.JobStatus{}, err
	}
	if resp.StatusCode != want {
		var ed struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &ed) == nil && ed.Error != "" {
			return serve.JobStatus{}, fmt.Errorf("server: %s (status %d)", ed.Error, resp.StatusCode)
		}
		return serve.JobStatus{}, fmt.Errorf("server answered %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var js serve.JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		return serve.JobStatus{}, err
	}
	return js, nil
}

func followEvents(base, id string, verbose bool) error {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if !verbose {
			continue
		}
		var ev serve.Event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		line := fmt.Sprintf("  %s %s", ev.Type, ev.Shard)
		if ev.Worker != "" {
			line += " @" + ev.Worker
		}
		if ev.Sims > 0 {
			line += fmt.Sprintf(" (%d sims)", ev.Sims)
		}
		if ev.Msg != "" {
			line += ": " + ev.Msg
		}
		fmt.Fprintln(os.Stderr, line)
	}
	return sc.Err()
}

// printResult fetches the job result and copies it to stdout. top > 0
// asks the server for the first top rows only (?limit= paging), so a
// mega-space result never ships in full just to show its head.
func printResult(base, id, format string, top int) error {
	url := base + "/v1/jobs/" + id + "/result?format=" + format
	if top > 0 {
		url += fmt.Sprintf("&limit=%d", top)
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("result: server answered %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}
