package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the fdcsim stdout goldens under testdata/")

// runMainEnv switches a re-executed test binary into running main with
// the command line it was given, so the goldens exercise the real flag
// parsing, report printer and exit codes.
const runMainEnv = "FDCSIM_GOLDEN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenBase is a small alpha1 run: each case below finishes in well
// under a second.
var goldenBase = []string{"-workload", "alpha1", "-scale", "0.03", "-dram", "2M", "-flash", "8M", "-requests", "200000"}

// goldenCases between them drive every way the Flash cache moves or
// drops a live page: GC relocation, wear rotation, scrub migration,
// refresh rewrite, block retirement, the deferred scrub drain under a
// channel/bank scheduler with a write buffer, and a run in which the
// cache dies. ckSHA256 pins the -checkpoint-out bytes ("" for a case
// that writes none: the scheduler case cannot checkpoint).
var goldenCases = []struct {
	name     string
	args     []string
	exit     int
	ckSHA256 string
}{
	{
		name:     "wear-refresh",
		args:     []string{"-wear-accel", "300", "-scrub", "64", "-retention-accel", "3e7", "-refresh-threshold", "0.5"},
		ckSHA256: "ed71bb262deb3aa3a30c604e87212d151041d51ddc9071563be018ae137845bf",
	},
	{
		name:     "gc-scrub-retire",
		args:     []string{"-wear-accel", "300", "-faults", "program=2e-4,grown=0.05,seed=3", "-scrub", "128"},
		ckSHA256: "6178415cbe3d4cdbc5c72b2059ef87a3d1723527fce47fb1b1f70492c4c1146f",
	},
	{
		name: "dies",
		args: []string{"-wear-accel", "3000", "-faults", "program=1e-3,erase=1e-3,grown=0.2,seed=7", "-scrub", "256",
			"-retention-accel", "1e6", "-disturb-reads", "1000"},
		exit:     1,
		ckSHA256: "d33a6c165261fc4e8d22f8c92a0fef671ceda42001d6000927a1cb13dda8bc09",
	},
	{
		name: "sched-feedback",
		args: []string{"-channels", "4", "-banks", "2", "-wbuf", "16", "-scrub", "64", "-scrub-feedback", "-wear-accel", "300",
			"-retention-accel", "3e7", "-refresh-threshold", "0.5", "-faults", "program=2e-4,grown=0.05,seed=5"},
	},
}

// TestGoldenReports pins fdcsim's stdout byte for byte, its exit code,
// and the SHA-256 of its checkpoint file for runs that move pages for
// every reason the cache has. Regenerate the stdout goldens (only for an
// intended output change) with
//
//	go test ./cmd/fdcsim -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string{}, goldenBase...), tc.args...)
			ck := ""
			if tc.ckSHA256 != "" {
				ck = filepath.Join(t.TempDir(), "run.fdck")
				args = append(args, "-checkpoint-out", ck)
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				code = ee.ExitCode()
			}
			if code != tc.exit {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.exit, stderr.Bytes())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGoldens {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s:\ngot:\n%s\nwant:\n%s", path, stdout.Bytes(), want)
			}
			if ck == "" {
				return
			}
			data, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.ckSHA256 {
				t.Errorf("checkpoint SHA-256 %s, want %s", got, tc.ckSHA256)
			}
		})
	}
}
