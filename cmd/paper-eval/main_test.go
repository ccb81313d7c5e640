package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// captureRun runs paper-eval with args and returns what it printed to
// stdout.
func captureRun(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	got := <-out
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	return string(got)
}

// checkGolden compares a report with testdata/<name>.golden byte for
// byte (go test -update rewrites the file instead).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs from %s at line %d:\n got  %q\n want %q", name, path, i+1, gl, wl)
		}
	}
}

// TestRunFlagErrors: bad invocations come back as errors (main turns
// them into exit 1 + stderr) instead of being silently ignored.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-table", "99"},
		{"-figure", "nope"},
		{"stray-positional"},
		{"-seed", "0", "-faults"},
		{"-seed", "-3", "-reliable"},
		{"-soak", "-1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) = nil, want error", args)
		}
	}
	if err := run([]string{"-table", "99"}); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("table error unclear: %v", err)
	}
}

// TestRunSmoke: a cheap good invocation succeeds end to end.
func TestRunSmoke(t *testing.T) {
	if err := run([]string{"-table", "6"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFaultsSeeded: the fault experiment honors a non-default -seed
// end to end (the scenario rebuilds its trace, schedule and jitter from
// it) and its report is byte-identical to the checked-in golden.
func TestRunFaultsSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-routing fault sweep")
	}
	checkGolden(t, "faults", captureRun(t, "-faults", "-seed", "7"))
}

// TestRunReliableSeeded: same for the raw-vs-reliable comparison.
func TestRunReliableSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("raw+reliable sweep over three routings")
	}
	checkGolden(t, "reliable", captureRun(t, "-reliable", "-seed", "5"))
}

// TestRunGoldens: the remaining fixed-seed network reports are
// byte-identical to their goldens. The -fct report's event-vs-polled
// wall-clock lines are its only nondeterministic output and are dropped
// before the comparison (the report itself asserts the totals behind
// them equal).
func TestRunGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("three network experiments")
	}
	t.Run("net", func(t *testing.T) {
		checkGolden(t, "net", captureRun(t, "-net"))
	})
	t.Run("telemetry", func(t *testing.T) {
		checkGolden(t, "telemetry", captureRun(t, "-telemetry"))
	})
	t.Run("fct", func(t *testing.T) {
		var kept []string
		for _, l := range strings.SplitAfter(captureRun(t, "-fct", "-k", "4"), "\n") {
			if !strings.Contains(l, " wall for ") && !strings.Contains(l, "speedup:") {
				kept = append(kept, l)
			}
		}
		checkGolden(t, "fct", strings.Join(kept, ""))
	})
}

// TestRunSoakSmall: a handful of chaos schedules end to end through the
// CLI path (the full-size soak runs via `make soak`).
func TestRunSoakSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	if err := run([]string{"-soak", "8", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}
