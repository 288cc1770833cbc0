package main

import (
	"flag"
	"strings"
	"testing"

	"sttdl1/internal/dse"
)

// TestUsageMentionsEverySpace pins the help text to the design-space
// registry: a space registered in dse.Spaces() that usage does not name
// is a drift bug (usageText builds the list from dse.Names(), so this
// can only fail if that wiring is broken).
func TestUsageMentionsEverySpace(t *testing.T) {
	text := usageText()
	for _, name := range dse.Names() {
		if !strings.Contains(text, name) {
			t.Errorf("usage text does not mention design space %q", name)
		}
	}
}

// TestUsageMentionsEveryBenchConfig does the same for the bench -cfg
// registry.
func TestUsageMentionsEveryBenchConfig(t *testing.T) {
	text := usageText()
	for _, name := range benchConfigNames() {
		if !strings.Contains(text, name) {
			t.Errorf("usage text does not mention bench configuration %q", name)
		}
	}
}

// TestUsageMentionsEveryFlag walks every subcommand's registered flags:
// each must appear in the help text as "-name". Registering a new flag
// without documenting it fails here.
func TestUsageMentionsEveryFlag(t *testing.T) {
	text := usageText()
	for cmd, fs := range commandFlagSets() {
		fs.VisitAll(func(f *flag.Flag) {
			if !strings.Contains(text, "-"+f.Name) {
				t.Errorf("usage text does not mention %s flag -%s", cmd, f.Name)
			}
		})
	}
}

// TestBenchConfigsBuild exercises every bench -cfg constructor: each
// must produce a distinct, named configuration (catching a registry
// entry whose closure forgot Name, which would garble bench output and
// memo labels).
func TestBenchConfigsBuild(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range benchConfigs {
		cfg := c.make()
		if cfg.Name == "" {
			t.Errorf("bench config %q builds an unnamed sim.Config", c.name)
		}
		if seen[cfg.Name] {
			t.Errorf("bench config %q reuses sim.Config name %q", c.name, cfg.Name)
		}
		seen[cfg.Name] = true
	}
}

// TestBenchRejectsBadSizes: a negative -n is an error rather than the
// default size, and a size whose data segment cannot be addressed fails
// at compile time with the kernel named, before anything allocates it.
func TestBenchRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct{ n, want string }{
		{"-1", "negative"},
		{"100000", "compile: atax: data segment"},
	} {
		err := cmdBench([]string{"-n", tc.n, "atax"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bench -n %s atax: got %v, want an error containing %q", tc.n, err, tc.want)
		}
	}
}
