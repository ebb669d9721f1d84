package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// childEnv makes the test binary run as bccd (run(os.Args[1:])) instead of
// running the tests, so the daemon is exercised as a real process.
const childEnv = "BCCD_TEST_AS_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterAddrFile sends SIGTERM the moment -addrfile appears:
// the signal handler must already be installed by then, so the daemon
// drains and exits 0 instead of dying from the default SIGTERM action.
func TestSIGTERMRightAfterAddrFile(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for round := 0; round < 5; round++ {
		addrFile := filepath.Join(dir, fmt.Sprintf("addr%d", round))
		cmd := exec.Command(exe, "-store", filepath.Join(dir, "store"), "-addr", "127.0.0.1:0", "-addrfile", addrFile)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if _, err := os.Stat(addrFile); err == nil {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill() // best effort: the test fails either way
				cmd.Wait()
				t.Fatalf("round %d: addrfile never appeared; stderr:\n%s", round, stderr.String())
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("round %d: bccd exited with %v; stderr:\n%s", round, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "bccd: drained, exiting") {
			t.Fatalf("round %d: no drain log line; stderr:\n%s", round, stderr.String())
		}
	}
}
