package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"archcontest/internal/cluster"
)

// A run, a recorded contest and an explore, at small n.
const (
	runSpec     = `{"kind":"run","bench":"gcc","cores":["twolf"],"n":5000}`
	contestSpec = `{"kind":"contest","bench":"twolf","cores":["twolf","vpr"],"n":5000,"record":true}`
	exploreSpec = `{"kind":"explore","bench":"gzip","n":5000,"explore":{"seed":1,"steps":6,"lookahead":4}}`
)

// TestSpecMatchesServedResult: each stdout line is the JSON value a serve
// node returns under "result" for the same spec, and a second invocation on
// the same cache directory executes no leaf.
func TestSpecMatchesServedResult(t *testing.T) {
	dir := t.TempDir()
	lines, _ := invoke(t, dir, runSpec, contestSpec, exploreSpec)

	node, err := cluster.StartNode(cluster.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Kill()
	for i, sp := range []string{runSpec, contestSpec, exploreSpec} {
		var cli any
		if err := json.Unmarshal([]byte(lines[i]), &cli); err != nil {
			t.Fatalf("stdout line %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(cli, served(t, node, sp)) {
			t.Errorf("%s: the printed outcome differs from the served result", sp)
		}
	}

	// The recorded contest bypassed the cache; the run and the explore
	// are served from it whole.
	again, stderr := invoke(t, dir, runSpec, exploreSpec)
	if !strings.Contains(stderr, " 0 misses, 0 stored") {
		t.Errorf("second invocation executed leaves:\n%s", stderr)
	}
	if again[0] != lines[0] || again[1] != lines[2] {
		t.Error("second invocation printed different outcomes")
	}
}

// invoke runs the command with dir as its result cache and returns its
// stdout lines, one per spec, and its stderr.
func invoke(t *testing.T, dir string, specs ...string) ([]string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), append([]string{"-cache.dir", dir}, specs...), &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(specs) {
		t.Fatalf("%d stdout lines for %d specs", len(lines), len(specs))
	}
	return lines, stderr.String()
}

// served submits sp to the node and returns the finished job's "result".
func served(t *testing.T, node *cluster.FleetNode, sp string) any {
	t.Helper()
	resp, err := http.Post(node.URL+"/v1/jobs", "application/json", strings.NewReader(sp))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, %v", sp, resp.StatusCode, err)
	}
	j, ok := node.Runner.Get(job.ID)
	if !ok {
		t.Fatalf("job %s unknown to its node", job.ID)
	}
	<-j.Done()
	resp, err = http.Get(node.URL + "/v1/jobs/" + job.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result any    `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.State != "done" {
		t.Fatalf("job %s: %s %s", job.ID, v.State, v.Error)
	}
	return v.Result
}
