package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"backuppower/internal/core"
	"backuppower/internal/grid"
)

const testSpecJSON = `{"servers":[8],"workloads":["specjbb","memcached"],` +
	`"configs":[{"name":"MaxPerf"},{"name":"NoDG"}],` +
	`"techniques":[{"name":"baseline"},{"name":"throttling","pstate":3}],` +
	`"outages":["30s","5m","30m"]}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A one-shot run over two in-process loopback workers writes the bytes
// an in-process grid.Runner streams for the same spec.
func TestRunLoopbackMatchesRunner(t *testing.T) {
	var spec grid.Spec
	if err := json.Unmarshal([]byte(testSpecJSON), &spec); err != nil {
		t.Fatal(err)
	}
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	err = grid.NewRunner(core.New(64)).RunStream(t.Context(), plan, grid.RunOptions{},
		func(row grid.RowResult) error { return enc.Encode(grid.NewRowDTO(plan.Op, row)) })
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-loopback", "2", "-shard-rows", "5", "-spec", writeSpec(t, testSpecJSON)}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatalf("merged stream differs from the in-process run:\ngot %d bytes\nwant %d bytes", stdout.Len(), want.Len())
	}
}

// Usage errors and a spec the compiler rejects exit 2 before any row is
// written.
func TestRunUsageErrorsExit2(t *testing.T) {
	spec := writeSpec(t, testSpecJSON)
	badSpec := writeSpec(t, strings.Replace(testSpecJSON, `"specjbb"`, `"no-such-workload"`, 1))
	for name, args := range map[string][]string{
		"workers and loopback":  {"-workers", "http://127.0.0.1:1", "-loopback", "1", "-spec", spec},
		"no spec":               {"-loopback", "1"},
		"spec fails to compile": {"-loopback", "1", "-spec", badSpec},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", name, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q", name, stdout.String())
		}
	}
}
