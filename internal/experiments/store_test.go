package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"sttdl1/internal/dse"
	"sttdl1/internal/energy"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
)

func storeBench(t *testing.T) polybench.Bench {
	t.Helper()
	b, ok := polybench.ByName("atax")
	if !ok {
		t.Fatal("benchmark atax not registered")
	}
	b.Default = 24 // keep the simulations cheap
	return b
}

// TestSuiteStoreWarmHit drives the full second-tier path: a cold suite
// populates the store, a fresh suite (fresh in-memory memo) over the
// same directory serves the identical result from disk — counters,
// config, derived energy — with the timing model never running, and the
// progress stream marks the run as cached.
func TestSuiteStoreWarmHit(t *testing.T) {
	dir := t.TempDir()
	b := storeBench(t)
	cfgs := []sim.Config{sim.BaselineSRAM(), sim.ProposalVWB()}

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuiteJobs([]polybench.Bench{b}, 1)
	s1.SetStore(cold)
	fresh := make([]*sim.RunResult, len(cfgs))
	for i, cfg := range cfgs {
		if fresh[i], err = s1.Run(b, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := cold.Stats(); st.Hits != 0 || st.Writes != int64(len(cfgs)) {
		t.Fatalf("cold run stats = %+v, want 0 hits / %d writes", st, len(cfgs))
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuiteJobs([]polybench.Bench{b}, 1)
	s2.SetStore(warm)
	var counters stats.Counters
	s2.SetProgress(counters.Observe)
	// Stored derives its key from a compile alone: answering it, for a
	// stored point or an absent one, never executes the kernel.
	for _, cfg := range cfgs {
		if !s2.Stored(b, cfg) {
			t.Errorf("%s: Stored() = false after the cold run", cfg.Name)
		}
	}
	absent := sim.ProposalVWB()
	absent.DL1Banks = 8
	if s2.Stored(b, absent) {
		t.Error("Stored() = true for a configuration never run")
	}
	if got := s2.Captures(); got != 0 {
		t.Errorf("Stored() performed %d capture(s), want 0", got)
	}
	for i, cfg := range cfgs {
		r, err := s2.Run(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := fresh[i]
		want := *f.CPU
		want.State = nil
		if *r.CPU != want {
			t.Errorf("%s: warm CPU counters differ from fresh run", cfg.Name)
		}
		if r.Config != f.Config {
			t.Errorf("%s: warm result config = %+v, want %+v", cfg.Name, r.Config, f.Config)
		}
		if r.DL1Stats != f.DL1Stats || r.FEStats != f.FEStats || r.L2Stats != f.L2Stats {
			t.Errorf("%s: warm cache stats differ from fresh run", cfg.Name)
		}
		m, err := energy.ModelFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, wantUJ := energy.TotalUJ(r, cfg, m), energy.TotalUJ(f, cfg, m); got != wantUJ {
			t.Errorf("%s: warm TotalUJ = %v, fresh %v", cfg.Name, got, wantUJ)
		}
	}
	if st := warm.Stats(); st.Hits != int64(len(cfgs)) || st.Misses != 0 || st.Writes != 0 {
		t.Fatalf("warm run stats = %+v, want %d hits / 0 misses / 0 writes", st, len(cfgs))
	}
	if got := counters.Cached(); got != len(cfgs) {
		t.Errorf("progress saw %d cached events, want %d", got, len(cfgs))
	}
	if got := s2.StoreStats().Hits; got != int64(len(cfgs)) {
		t.Errorf("StoreStats().Hits = %d, want %d", got, len(cfgs))
	}
	if got := s2.Captures(); got != 0 {
		t.Errorf("warm run performed %d capture(s), want 0", got)
	}
}

// smokeCSV evaluates the smoke space on a fresh suite (over dir's store
// when dir is non-empty) and returns the rendered CSV, the suite's
// capture count and the store's counters.
func smokeCSV(t *testing.T, benches []polybench.Bench, dir string) (string, int, store.Stats) {
	t.Helper()
	sp, ok := dse.ByName("smoke")
	if !ok {
		t.Fatal("smoke space not registered")
	}
	s := NewSuiteJobs(benches, 2)
	var st *store.Store
	if dir != "" {
		var err error
		if st, err = store.Open(dir); err != nil {
			t.Fatal(err)
		}
		s.SetStore(st)
	}
	ev, err := dse.Evaluate(s, benches, sp)
	if err != nil {
		t.Fatal(err)
	}
	return ev.PointsTable().CSV(), s.Captures(), s.StoreStats()
}

// TestWarmSweepNeverCaptures pins the point of keying the store on the
// functional digest: a fresh suite sweeping smoke against a populated
// store renders the store-less bytes without executing any kernel.
func TestWarmSweepNeverCaptures(t *testing.T) {
	dir := t.TempDir()
	benches := []polybench.Bench{storeBench(t)}
	want, _, _ := smokeCSV(t, benches, "")

	cold, coldCaptures, _ := smokeCSV(t, benches, dir)
	if cold != want {
		t.Fatalf("cold store sweep differs from the store-less run:\n%s\nwant:\n%s", cold, want)
	}
	if coldCaptures == 0 {
		t.Fatal("cold sweep reported no captures")
	}
	warm, warmCaptures, st := smokeCSV(t, benches, dir)
	if warm != want {
		t.Errorf("warm sweep differs from the store-less run:\n%s\nwant:\n%s", warm, want)
	}
	if warmCaptures != 0 {
		t.Errorf("warm sweep performed %d capture(s), want 0", warmCaptures)
	}
	if st.Hits == 0 || st.Misses != 0 {
		t.Errorf("warm sweep store stats = %+v, want all hits", st)
	}
}

// TestStaleSchemaReevaluates rewrites every record of a populated store
// as a previous-schema record: Verify removes them as stale without
// counting corruption, and the next sweep re-evaluates to the same
// bytes.
func TestStaleSchemaReevaluates(t *testing.T) {
	dir := t.TempDir()
	benches := []polybench.Bench{storeBench(t)}
	want, _, coldStats := smokeCSV(t, benches, dir)

	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".rec" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rec, err := store.DecodeRecord(data)
		if err != nil {
			return err
		}
		rec.Schema = store.SchemaVersion - 1
		if data, err = store.EncodeRecord(rec); err != nil {
			return err
		}
		n++
		return os.WriteFile(path, data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || int64(n) != coldStats.Writes {
		t.Fatalf("rewrote %d record(s), cold sweep wrote %d", n, coldStats.Writes)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if d.Stale != n || d.Healed != 0 || d.Records != 0 {
		t.Errorf("Verify = %+v, want %d stale, 0 healed, 0 surviving", d, n)
	}
	if got := st.Stats().Corrupt; got != 0 {
		t.Errorf("Verify counted %d stale record(s) as corrupt", got)
	}

	got, _, warmStats := smokeCSV(t, benches, dir)
	if got != want {
		t.Errorf("re-evaluated sweep differs from the original:\n%s\nwant:\n%s", got, want)
	}
	if warmStats.Hits != 0 || warmStats.Writes != coldStats.Writes {
		t.Errorf("sweep after Verify: %+v, want 0 hits and %d writes", warmStats, coldStats.Writes)
	}
}

// TestSuiteStoreHealsCorruption corrupts every stored entry on disk and
// re-runs through a fresh suite: the suite must detect, delete,
// re-evaluate and re-publish — and still produce the identical result.
func TestSuiteStoreHealsCorruption(t *testing.T) {
	dir := t.TempDir()
	b := storeBench(t)
	cfg := sim.ProposalVWB()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuiteJobs([]polybench.Bench{b}, 1)
	s1.SetStore(st1)
	fresh, err := s1.Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate every entry mid-record — the on-disk shape a kill -9
	// between write and rename could leave behind a crash-inconsistent
	// filesystem with.
	n := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".rec" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		return os.WriteFile(path, data[:len(data)/3], 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("cold run stored no entries")
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuiteJobs([]polybench.Bench{b}, 1)
	s2.SetStore(st2)
	if s2.Stored(b, cfg) {
		t.Error("Stored() validated a truncated entry")
	}
	r, err := s2.Run(b, cfg)
	if err != nil {
		t.Fatalf("run over a corrupt store must re-evaluate, got: %v", err)
	}
	if r.CPU.Cycles != fresh.CPU.Cycles || r.CPU.Insts != fresh.CPU.Insts {
		t.Error("re-evaluated result differs from the original")
	}
	stats2 := st2.Stats()
	if stats2.Hits != 0 || stats2.Corrupt == 0 || stats2.Writes == 0 {
		t.Errorf("healing stats = %+v, want 0 hits, >0 corrupt, >0 writes", stats2)
	}
	// Third pass: the repaired entry serves warm.
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewSuiteJobs([]polybench.Bench{b}, 1)
	s3.SetStore(st3)
	if !s3.Stored(b, cfg) {
		t.Error("repaired entry not visible to Stored()")
	}
	if _, err := s3.Run(b, cfg); err != nil {
		t.Fatal(err)
	}
	if got := st3.Stats().Hits; got != 1 {
		t.Errorf("post-repair hits = %d, want 1", got)
	}
}

// TestSuiteStoreKeysCheckApart pins the Check-flag addressing: a
// checked run must never be served from an unchecked run's stored
// entry or memo (the whole point of -check is that the oracle actually
// runs), while a WithCheck copy of a suite still shares its captures.
func TestSuiteStoreKeysCheckApart(t *testing.T) {
	dir := t.TempDir()
	b := storeBench(t)
	cfg := sim.ProposalVWB()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuiteJobs([]polybench.Bench{b}, 1)
	s1.SetStore(st1)
	if _, err := s1.Run(b, cfg); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSuiteJobs([]polybench.Bench{b}, 1).WithCheck(true)
	s2.SetStore(st2)
	if s2.Stored(b, cfg) {
		t.Fatal("checked lookup matched an unchecked entry")
	}
	if _, err := s2.Run(b, cfg); err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Hits; got != 0 {
		t.Errorf("checked run hit an unchecked entry (%d hits)", got)
	}

	// Without a store, the checked copy must simulate on the trace the
	// unchecked run captured.
	s3 := NewSuiteJobs([]polybench.Bench{b}, 1)
	for _, s := range []*Suite{s3, s3.WithCheck(true)} {
		if _, err := s.Run(b, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if sims, caps := s3.SimsRun(), s3.Captures(); sims != 2 || caps != 1 {
		t.Errorf("unchecked run and its WithCheck copy: %d simulation(s), %d capture(s); want 2 and 1", sims, caps)
	}
}
