package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildBackupd compiles cmd/backupd into a temporary directory.
func buildBackupd(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(bin, "backupd"), "backuppower/cmd/backupd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building backupd: %v\n%s", err, out)
	}
	return bin
}

func TestRerunEpochLeavesNoStoreBehind(t *testing.T) {
	work := t.TempDir()
	b := &Bench{bin: buildBackupd(t), work: work, logs: t.TempDir(), seed: 1, seconds: 1}
	_, epoch := mustRerun(t, 1, 2)
	ctx := context.Background()

	var sawStore bool
	err := b.epoch(ctx, 0, func(url string, g Group) error {
		client := newClient(1)
		defer client.CloseIdleConnections()
		out, err := ClosedLoop(ctx, client, url, epoch, g.CPU)
		if err != nil {
			return err
		}
		for _, o := range out {
			if !o.OK() {
				return firstFailure(epoch, []Outcome{o})
			}
		}
		entries, err := os.ReadDir(storeDir(work, 0))
		sawStore = err == nil && len(entries) > 0
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawStore {
		t.Fatal("the epoch's backupd wrote no store files")
	}
	// A failing epoch cleans up too.
	boom := errors.New("boom")
	if err := b.epoch(ctx, 1, func(string, Group) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("epoch error = %v, want %v", err, boom)
	}
	left, err := os.ReadDir(filepath.Join(work, "rerun"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("rerun epochs left %d store directories behind", len(left))
	}
}
