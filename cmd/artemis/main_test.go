package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes this test
// binary with ARTEMIS_RUN_MAIN=1, so tests see its real exit status.
func TestMain(m *testing.M) {
	if os.Getenv("ARTEMIS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageErrors: every flag is checked before anything runs or is
// written. A setting that names no campaign exits 2 with a message
// naming the flag, not 1, the status a failed -selfcheck returns, and
// the CPU profiler has not created its file yet. -seeds 0 is an empty
// campaign and -steps 0 the default budget.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	for _, tc := range []struct {
		args []string
		want string // in stderr; "" expects exit 0
	}{
		{[]string{"-seeds", "0", "-iters", "1", "-steps", "1"}, ""},
		{[]string{"-seeds", "-3"}, "-seeds -3"},
		{[]string{"-seeds", "2", "-steps", "-1"}, "-steps -1"},
		{[]string{"-seeds", "2", "-iters", "0"}, "-iters 0"},
		{[]string{"-seeds", "2", "-iters", "-1"}, "-iters -1"},
		{[]string{"-seeds", "0", "-workers", "-3"}, "-workers -3"},
		{[]string{"-seeds", "0", "-blamebudget", "-5"}, "-blamebudget -5"},
		{[]string{"-seeds", "0", "-seedtimeout", "-1s"}, "-seedtimeout -1s"},
		{[]string{"-seeds", "0", "-resume"}, "-resume requires -journal"},
		{[]string{"-seeds", "0", "-cpuprofile", prof, "-resume"}, "-resume requires -journal"},
		{[]string{"-seeds", "0", "-table4", "-corpus", filepath.Join(dir, "corpus")}, "-journal/-corpus"},
		{[]string{"-seeds", "0", "-table1", "-journal", filepath.Join(dir, "j")}, "-journal/-corpus"},
		{[]string{"-seeds", "0", "-profile", "nosuch"}, "nosuch"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "ARTEMIS_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = nil, &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		args := strings.Join(tc.args, " ")
		switch {
		case tc.want == "" && code != 0:
			t.Errorf("artemis %s: exit %d, want 0: %s", args, code, stderr.String())
		case tc.want != "" && code != 2:
			t.Errorf("artemis %s: exit %d, want 2 (usage error): %s", args, code, stderr.String())
		case tc.want != "" && !strings.Contains(stderr.String(), tc.want):
			t.Errorf("artemis %s: stderr %q does not name %q", args, stderr.String(), tc.want)
		}
	}
	if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a usage error left the CPU profile %s behind (stat: %v)", prof, err)
	}
}
