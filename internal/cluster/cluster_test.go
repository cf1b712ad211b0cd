package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"archcontest/internal/spec"
)

func TestRankDeterministicAndTotal(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		first := Rank(key, nodes)
		for trial := 0; trial < 5; trial++ {
			if got := Rank(key, nodes); !equalStrings(got, first) {
				t.Fatalf("Rank(%q) unstable: %v vs %v", key, got, first)
			}
		}
		seen := make(map[string]bool)
		for _, n := range first {
			seen[n] = true
		}
		if len(seen) != len(nodes) {
			t.Fatalf("Rank(%q) is not a permutation: %v", key, first)
		}
	}
}

func TestRankSpread(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	firsts := make(map[string]int)
	const keys = 300
	for i := 0; i < keys; i++ {
		firsts[Rank(fmt.Sprintf("key-%d", i), nodes)[0]]++
	}
	for _, n := range nodes {
		// Uniform would be 100 each; require each node to win at least a
		// third of its fair share so a badly skewed hash fails loudly.
		if firsts[n] < keys/len(nodes)/3 {
			t.Errorf("node %s ranked first for only %d/%d keys: %v", n, firsts[n], keys, firsts)
		}
	}
}

// TestRankMinimalDisruption: dropping one node must not move any key whose
// first choice survives.
func TestRankMinimalDisruption(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	dead := nodes[2]
	var survivors []string
	for _, n := range nodes {
		if n != dead {
			survivors = append(survivors, n)
		}
	}
	moved, kept := 0, 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := Rank(key, nodes)[0]
		afterFirst := Rank(key, survivors)[0]
		if before == dead {
			moved++
			continue
		}
		if afterFirst != before {
			t.Fatalf("key %q re-homed from %s to %s though its node survived", key, before, afterFirst)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate key set: moved=%d kept=%d", moved, kept)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func startTestFleet(t *testing.T, n int, opts FleetOptions) *Fleet {
	t.Helper()
	f, err := StartFleet(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestFacadeEndToEnd drives the whole cluster surface through the
// coordinator: submit, watch (NDJSON with coordinator-side monotonic seq),
// result, trace, list, healthz, and a graceful drain.
func TestFacadeEndToEnd(t *testing.T) {
	f := startTestFleet(t, 3, FleetOptions{Workers: 2, MaxQueue: 8})

	code, h := get(t, f.CoordURL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	nodes, _ := h["nodes"].([]any)
	if len(nodes) != 3 {
		t.Fatalf("healthz lists %d nodes, want 3: %v", len(nodes), h)
	}
	for _, n := range nodes {
		if n.(map[string]any)["healthy"] != true {
			t.Fatalf("node unhealthy at start: %v", n)
		}
	}

	code, v := post(t, f.CoordURL+"/v1/jobs",
		`{"kind":"contest","bench":"twolf","cores":["twolf","vpr"],"n":20000,"record":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, v)
	}
	id, _ := v["id"].(string)
	if !strings.HasPrefix(id, "cj-") {
		t.Fatalf("facade job id %q lacks the cluster prefix", id)
	}
	owner, _ := v["node"].(string)
	if owner == "" {
		t.Fatalf("submit response names no owning node: %v", v)
	}

	// Watch through the facade: seq strictly monotonic, ends with a
	// terminal snapshot embedding the result.
	resp, err := http.Get(f.CoordURL + "/v1/jobs/" + id + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	lastSeq := -1.0
	var final map[string]any
	for sc.Scan() {
		var snap map[string]any
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if seq := snap["seq"].(float64); seq <= lastSeq {
			t.Fatalf("facade seq went backwards: %v after %v", seq, lastSeq)
		} else {
			lastSeq = seq
		}
		final = snap
	}
	if final == nil || final["state"] != "done" {
		t.Fatalf("facade watch ended with %v, want done", final)
	}
	if final["result"] == nil {
		t.Fatal("terminal facade snapshot lacks the result")
	}
	if final["attempts"] != 1.0 || final["retries"] != 0.0 {
		t.Errorf("unexpected placement metadata: attempts=%v retries=%v", final["attempts"], final["retries"])
	}

	code, res := get(t, f.CoordURL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK || res["result"] == nil {
		t.Fatalf("result: %d %v", code, res)
	}
	tr, err := http.Get(f.CoordURL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("proxied trace: %d", tr.StatusCode)
	}
	var events []map[string]any
	if err := json.NewDecoder(tr.Body).Decode(&events); err != nil || len(events) == 0 {
		t.Fatalf("proxied trace unusable: %d events, err %v", len(events), err)
	}

	resp2, err := http.Get(f.CoordURL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var views []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&views); err != nil || len(views) != 1 {
		t.Fatalf("list: %d views, err %v", len(views), err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// A drained coordinator refuses new work with 503.
	resp3, err := http.Post(f.CoordURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"run","bench":"gcc","cores":["gcc"],"n":20000}`))
	if err == nil {
		defer resp3.Body.Close()
		if resp3.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit while drained: %d, want 503", resp3.StatusCode)
		}
	}
}

// TestFacadeCancel cancels a running job through the coordinator.
func TestFacadeCancel(t *testing.T) {
	f := startTestFleet(t, 2, FleetOptions{Workers: 1, MaxQueue: 4})
	code, v := post(t, f.CoordURL+"/v1/jobs", `{"kind":"run","bench":"mcf","cores":["mcf"],"n":8000000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, v)
	}
	id := v["id"].(string)
	if code := del(t, f.CoordURL+"/v1/jobs/"+id); code != http.StatusAccepted {
		t.Fatalf("cancel: %d", code)
	}
	snap := waitTerminal(t, f.CoordURL, id)
	if snap["state"] != "cancelled" {
		t.Errorf("state %v after facade cancel, want cancelled", snap["state"])
	}
}

// TestFacadeRejectsBadSpecs: malformed and invalid specs bounce off the
// coordinator without consuming a placement.
func TestFacadeRejectsBadSpecs(t *testing.T) {
	f := startTestFleet(t, 2, FleetOptions{})
	code, v := post(t, f.CoordURL+"/v1/jobs", `{"kind":"run","bench":"gcc","frobnicate":1}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400 (%v)", code, v)
	}
	code, v = post(t, f.CoordURL+"/v1/jobs", `{"kind":"run","bench":"doom"}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("unknown bench: %d, want 422 (%v)", code, v)
	}
	if code, _ := get(t, f.CoordURL+"/v1/jobs/cj-9999"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if st := f.Coord.Stats(); st.Submits != 0 {
		t.Errorf("bad specs consumed %d submissions", st.Submits)
	}
}

// TestFacadeAffinity: identical specs are repeatedly routed to the same
// node (the warm one); distinct specs spread across the fleet.
func TestFacadeAffinity(t *testing.T) {
	f := startTestFleet(t, 3, FleetOptions{Workers: 2, MaxQueue: 16})
	const repeats = 4
	owner := ""
	var ids []string
	for i := 0; i < repeats; i++ {
		code, v := post(t, f.CoordURL+"/v1/jobs", `{"kind":"run","bench":"gcc","cores":["gcc"],"n":30000}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v", i, code, v)
		}
		ids = append(ids, v["id"].(string))
		if owner == "" {
			owner = v["node"].(string)
		} else if v["node"] != owner {
			t.Fatalf("submission %d routed to %v, earlier ones to %s", i, v["node"], owner)
		}
	}
	for _, id := range ids {
		waitTerminal(t, f.CoordURL, id)
	}
	if st := f.Coord.Stats(); st.AffinityHits != repeats {
		t.Errorf("affinity hits %d, want %d (stats %+v)", st.AffinityHits, repeats, st)
	}
}

// TestFacadeBackpressureFailover: when the affinity node is saturated the
// coordinator steps to the next ranked node instead of failing, and when
// the whole fleet is saturated the facade sheds with 503 + Retry-After.
func TestFacadeBackpressureFailover(t *testing.T) {
	const nodes = 2
	f := startTestFleet(t, nodes, FleetOptions{Workers: 1, MaxQueue: 1})
	long := `{"kind":"run","bench":"mcf","cores":["mcf"],"n":8000000}`
	// Capacity is nodes × (1 running + 1 queued) = 4 identical jobs. The
	// first two land on the affinity node; the next two must overflow to
	// the other node rather than bounce.
	var ids []string
	owners := make(map[string]int)
	for i := 0; i < 2*nodes; i++ {
		code, v := post(t, f.CoordURL+"/v1/jobs", long)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v (fleet should have capacity)", i, code, v)
		}
		ids = append(ids, v["id"].(string))
		owners[v["node"].(string)]++
	}
	if len(owners) != nodes {
		t.Fatalf("saturating jobs did not overflow across nodes: %v", owners)
	}

	resp, err := http.Post(f.CoordURL+"/v1/jobs", "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit over full fleet: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("fleet-full 503 lacks Retry-After")
	}
	if st := f.Coord.Stats(); st.Rejected != 1 || st.Sheds == 0 {
		t.Errorf("stats after shed: %+v, want rejected=1 sheds>0", st)
	}

	for _, id := range ids {
		del(t, f.CoordURL+"/v1/jobs/"+id)
	}
	for _, id := range ids {
		waitTerminal(t, f.CoordURL, id)
	}
}

// heldNode is a fake fleet node that answers /healthz and holds every
// POST /v1/jobs until release is called or the caller gives up. held
// receives a value once a POST is being held. After release it accepts
// the job as job-0001, whose status and watch stream are one terminal
// line.
type heldNode struct {
	*httptest.Server
	held    chan struct{}
	release func()
}

func newHeldNode(t *testing.T) *heldNode {
	t.Helper()
	held := make(chan struct{}, 1)
	gate := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, Health{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		select {
		case held <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-r.Context().Done():
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"id": "job-0001", "state": "queued", "seq": 1})
	})
	mux.HandleFunc("GET /v1/jobs/job-0001", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"id": "job-0001", "state": "done", "seq": 2, "result": map[string]any{}})
	})
	n := &heldNode{
		Server:  httptest.NewServer(mux),
		held:    held,
		release: func() { once.Do(func() { close(gate) }) },
	}
	t.Cleanup(n.Close)
	t.Cleanup(n.release)
	return n
}

// startFacade serves a coordinator over nodes. Its cleanup closes the
// coordinator before the facade server: that cancels any placement still
// waiting on a node, which would otherwise keep the server from closing.
func startFacade(t *testing.T, nodes ...string) (*Coordinator, string) {
	t.Helper()
	c := NewCoordinator(CoordOptions{Nodes: nodes})
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(c.Close)
	return c, srv.URL
}

// TestFacadeDrainWaitsForPlacement: a Drain that starts while a submission
// is being placed waits for that job, and once it returns nil the job the
// facade accepted is terminal.
func TestFacadeDrainWaitsForPlacement(t *testing.T) {
	node := newHeldNode(t)
	c, facade := startFacade(t, node.URL)

	type reply struct {
		code int
		v    map[string]any
		err  error
	}
	submitted := make(chan reply, 1)
	go func() {
		resp, err := http.Post(facade+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"run","bench":"gcc","cores":["gcc"],"n":20000}`))
		if err != nil {
			submitted <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var v map[string]any
		err = json.NewDecoder(resp.Body).Decode(&v)
		submitted <- reply{resp.StatusCode, v, err}
	}()
	select {
	case <-node.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the node never received the placement")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- c.Drain(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v while a submission was still being placed", err)
	case <-time.After(200 * time.Millisecond):
	}
	node.release()
	r := <-submitted
	if r.err != nil || r.code != http.StatusAccepted {
		t.Fatalf("submission admitted before the drain: status %d %v, err %v", r.code, r.v, r.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, v := get(t, facade+"/v1/jobs/"+r.v["id"].(string)); v["state"] != "done" {
		t.Fatalf("Drain returned with the accepted job in state %v", v["state"])
	}
}

// TestFacadePlacementDeadline: a node that answers probes but stalls on
// submissions holds a placement for at most rpcTimeout; the job then lands
// on the next ranked node.
func TestFacadePlacementDeadline(t *testing.T) {
	live, _ := newTestNode(t, 1, NodeOptions{})
	stalled := newHeldNode(t)
	nodes := []string{stalled.URL, live.URL}
	body := ""
	for n := 20000; body == ""; n++ {
		b := fmt.Sprintf(`{"kind":"run","bench":"gcc","cores":["gcc"],"n":%d}`, n)
		sp, err := spec.Parse([]byte(b))
		if err != nil {
			t.Fatal(err)
		}
		if Rank(sp.RouteKey(), nodes)[0] == stalled.URL {
			body = b
		}
	}
	c, facade := startFacade(t, nodes...)

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(facade+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted || v["node"] != live.URL {
		t.Fatalf("submit: %d %v, want 202 on %s", resp.StatusCode, v, live.URL)
	}
	waitTerminal(t, facade, v["id"].(string))
	if st := c.Stats(); st.Sheds != 1 {
		t.Errorf("sheds %d, want 1 for the stalled node (stats %+v)", st.Sheds, st)
	}
}
