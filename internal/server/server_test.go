package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp
}

// TestServerHTTP exercises the full API surface against a live manager:
// submit, poll, event stream, repeat-submit cache hit, and the error
// paths.
func TestServerHTTP(t *testing.T) {
	m := newTestManager(t, ManagerOptions{MaxJobs: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	// Bad specs are 400s.
	if resp, _ := postJob(t, ts, `{"kind":"frobnicate"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind: %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, `{"kind":"verify","bench":"c432","bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
	// The removed racing mode is refused, not silently ignored.
	if resp, _ := postJob(t, ts, `{"kind":"verify","bench":"c432","racing":true}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("racing field: %d", resp.StatusCode)
	}
	// A spec has no table kind and no sweep settings: those are 400s.
	for _, body := range []string{
		`{"kind":"table"}`,
		`{"kind":"verify","bench":"c432","benchmarks":["b14"]}`,
		`{"kind":"verify","bench":"c432","split_layers":[4,6]}`,
		`{"kind":"verify","bench":"c432","no_parallel":true}`,
	} {
		if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", body, resp.StatusCode)
		}
	}
	// A pattern count above sim.MaxPatterns is refused before any
	// compute: near math.MaxInt it used to round to an empty simulation
	// that reported an attack's key as checked.
	if resp, _ := postJob(t, ts, `{"kind":"attack","bench":"c432","scale":1,"keybits":16,"patterns":9223372036854775807}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing patterns: %d, want 400", resp.StatusCode)
	}
	// Unknown job is a 404.
	if resp := getJSON(t, ts, "/v1/jobs/job-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}

	// Submit a small verify job.
	spec := `{"kind":"verify","bench":"c432","scale":1,"keybits":16,"seed":2}`
	resp, body := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var rec JobRecord
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}

	// The event stream is NDJSON ending with a final status line.
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var lines []flow.JobEvent
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var ev flow.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) == 0 {
		t.Fatal("empty event stream")
	}
	if last := lines[len(lines)-1]; last.Stage != "final" || last.Message != string(StatusDone) {
		t.Fatalf("stream ended with %+v, want final/done", last)
	}

	// Poll the finished record.
	var done JobRecord
	if resp := getJSON(t, ts, "/v1/jobs/"+rec.ID, &done); resp.StatusCode != http.StatusOK {
		t.Fatalf("poll: %d", resp.StatusCode)
	}
	if done.Status != StatusDone || done.Cache != string(CacheMiss) {
		t.Fatalf("job record %s cache=%q: %s", done.Status, done.Cache, done.Error)
	}

	// Resubmitting the identical spec is served from the cache with the
	// identical payload.
	resp, body = postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var rec2 JobRecord
	if err := json.Unmarshal(body, &rec2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	var done2 JobRecord
	for {
		getJSON(t, ts, "/v1/jobs/"+rec2.ID, &done2)
		if done2.Status == StatusDone || done2.Status == StatusFailed || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if done2.Status != StatusDone || done2.Cache != string(CacheHit) {
		t.Fatalf("resubmit record %s cache=%q: %s", done2.Status, done2.Cache, done2.Error)
	}
	if string(done2.Result) != string(done.Result) {
		t.Fatalf("cached payload differs:\n%s\n%s", done.Result, done2.Result)
	}

	// List includes both jobs in ID order.
	var list []JobRecord
	getJSON(t, ts, "/v1/jobs", &list)
	if len(list) != 2 || list[0].ID != rec.ID || list[1].ID != rec2.ID {
		t.Fatalf("list: %+v", list)
	}

	// Health reports counters.
	var health map[string]any
	if resp := getJSON(t, ts, "/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if health["status"] != "ok" || health["cached"].(float64) != 1 {
		t.Fatalf("healthz: %+v", health)
	}
}
