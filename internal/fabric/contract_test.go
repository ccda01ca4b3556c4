package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"backuppower/internal/core"
	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
)

// TestSweepContractMatchesBackupd is the cross-daemon contract: every
// committed FuzzDecodeSweepRequest and FuzzRandomSpecCompiles corpus
// entry, plus hostile bodies, POSTed to backupd's handler and to a
// coordinator over two loopback workers, gets the same status and the
// same body from both. A body the coordinator rejects never reaches a
// worker.
func TestSweepContractMatchesBackupd(t *testing.T) {
	single, err := httpapi.New(httpapi.Config{Framework: core.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	backupd := httptest.NewServer(single.Handler())
	t.Cleanup(backupd.Close)

	var sweeps atomic.Int32
	urls := newWorkers(t, 2, func(_ int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sweeps.Add(1)
			inner.ServeHTTP(w, r)
		})
	})
	f, err := New(Options{Workers: urls, DefaultServers: 8, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(f.Handler())
	t.Cleanup(front.Close)

	bodies := contractBodies(t)
	names := make([]string, 0, len(bodies))
	for name := range bodies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body := bodies[name]
		before := sweeps.Load()
		wantStatus, want := postSweep(t, backupd.URL, body)
		gotStatus, got := postSweep(t, front.URL, body)
		t.Logf("%s: %d, %d bytes", name, gotStatus, len(got))
		if gotStatus != wantStatus {
			t.Errorf("%s: coordinator status %d, backupd %d\ncoordinator: %.300s\nbackupd: %.300s",
				name, gotStatus, wantStatus, got, want)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: status %d bodies differ\ncoordinator: %.300s\nbackupd: %.300s", name, gotStatus, got, want)
		}
		if gotStatus != http.StatusOK && sweeps.Load() != before {
			t.Errorf("%s: rejected with %d, yet %d shard requests reached workers",
				name, gotStatus, sweeps.Load()-before)
		}
	}
}

func postSweep(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// contractBodies collects the request bodies of the contract test, keyed
// by a name for failure messages.
func contractBodies(t *testing.T) map[string]string {
	t.Helper()
	bodies := map[string]string{}
	for name, args := range fuzzCorpus(t, "../httpapi/testdata/fuzz/FuzzDecodeSweepRequest") {
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(args[0], "string("), ")"))
		if err != nil {
			t.Fatalf("corpus %s: %v", name, err)
		}
		bodies["decode/"+name] = s
	}
	for name, args := range fuzzCorpus(t, "../grid/testdata/fuzz/FuzzRandomSpecCompiles") {
		// The fuzz target's arguments: seed, axisLen, servers, minOutage,
		// maxOutage, maxRows — turned into a spec exactly as it does.
		n := make([]int64, len(args))
		for i, a := range args {
			v, err := strconv.ParseInt(a[strings.IndexByte(a, '(')+1:len(a)-1], 10, 64)
			if err != nil {
				t.Fatalf("corpus %s: %v", name, err)
			}
			n[i] = v
		}
		b := grid.Bounds{
			MaxAxisLen:       int(n[1]),
			MaxOutageAxisLen: int(n[1]),
			MinOutage:        time.Duration(n[3]),
			MaxOutage:        time.Duration(n[4]),
			Variants:         n[0]%2 == 0,
		}
		if n[2] != 0 {
			b.Servers = []int{int(n[2])}
		}
		spec := grid.RandomSpec(rand.New(rand.NewSource(n[0])), b)
		spec.MaxRows = int(max(n[5], -n[5]))
		body, err := json.Marshal(httpapi.SweepRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		bodies["random/"+name] = string(body)
	}

	spec, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	req := func(extra string) string { return fmt.Sprintf(`{"spec":%s%s}`, spec, extra) }
	bodies["hostile/oversized"] = `{"spec":{"workloads":["` + strings.Repeat("a", 1<<20) + `"]}}`
	bodies["hostile/trailing garbage"] = req("") + " trailing"
	bodies["hostile/second document"] = req("") + req("")
	bodies["knobs/width and shard size"] = req(`,"width":2,"shard_size":3`)
	bodies["knobs/bad shard size"] = req(`,"shard_size":-3`)
	bodies["knobs/row range"] = req(`,"row_range":{"start":5,"end":17}`)
	bodies["knobs/row range outside plan"] = req(`,"row_range":{"start":20,"end":99}`)
	return bodies
}

// fuzzCorpus reads a committed fuzz corpus directory: each file is
// "go test fuzz v1" followed by one typed argument per line.
func fuzzCorpus(t *testing.T, dir string) map[string][]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus %s: %v (%d files)", dir, err, len(paths))
	}
	out := map[string][]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if lines[0] != "go test fuzz v1" {
			t.Fatalf("corpus %s: header %q", p, lines[0])
		}
		out[filepath.Base(p)] = lines[1:]
	}
	return out
}
