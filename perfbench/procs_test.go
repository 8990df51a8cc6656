package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// buildNodes compiles the shipped node binaries into a temporary
// directory.
func buildNodes(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, b := range []string{"wedge-cloud", "wedge-edge"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, b), "wedgechain/cmd/"+b).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", b, err, out)
		}
	}
	return dir
}

// released fails the test unless every pid is gone and every address of
// the layout can be bound again.
func released(t *testing.T, lay *layout, pids []int) {
	t.Helper()
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("pid %d still exists after stop (kill 0: %v)", pid, err)
		}
	}
	addrs := []string{lay.bench}
	for _, id := range nodeIDs {
		addrs = append(addrs, lay.node[id], lay.metrics[id])
	}
	for _, a := range addrs {
		l, err := net.Listen("tcp", a)
		if err != nil {
			t.Errorf("%s not released: %v", a, err)
			continue
		}
		l.Close()
	}
}

func TestBackToBackClustersReleaseProcessesAndPorts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the node binaries")
	}
	bin := buildNodes(t)
	for i := 0; i < 2; i++ {
		lay, err := newLayout(2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := startProcCluster(lay, bin, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.scrape(context.Background()); err != nil {
			t.Fatal(err)
		}
		var pids []int
		for _, id := range nodeIDs {
			pids = append(pids, c.pid(id))
		}
		c.stop()
		released(t, lay, pids)
	}
}

func TestFailedStartReleasesEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the node binaries")
	}
	bin := buildNodes(t)
	// An edge binary that exits at once: the cloud is already running
	// when the start fails, and must be stopped with it.
	if err := os.WriteFile(filepath.Join(bin, "wedge-edge"), []byte("#!/bin/sh\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	sp, _ := specFor("ingest")
	a := &arm{sp: sp, in: generate(sp, 1, 0, 1), binDir: bin, outDir: t.TempDir()}
	if err := a.boot(context.Background()); err == nil {
		t.Fatal("boot succeeded with a broken edge binary")
	}
	a.teardown()
	released(t, a.lay, nil)
	if a.g != nil || a.cl != nil {
		t.Error("teardown left the endpoint or cluster set")
	}
}
