package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestService starts a full service (real runSpec unless opts.run is
// stubbed) on an httptest server.
func newTestService(t *testing.T, opts Options) (*httptest.Server, *Executor) {
	t.Helper()
	exec := NewExecutor(opts)
	ts := httptest.NewServer(NewServer(exec, ServerOptions{}).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = exec.Drain(ctx)
	})
	return ts, exec
}

func postJob(t *testing.T, ts *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp
}

func getBody(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// awaitDone polls the status endpoint until the job is terminal — the
// plain client workflow (submit → poll → fetch result).
func awaitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: HTTP %d: %s", code, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const smallSimJob = `{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"seed":7,"trials":4}`

func TestServiceLifecycleSimJob(t *testing.T) {
	ts, _ := newTestService(t, Options{Workers: 2})

	st, resp := postJob(t, ts, smallSimJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st.ID == "" || st.Kind != KindSim || st.Hash == "" {
		t.Fatalf("submit snapshot incomplete: %+v", st)
	}

	final := awaitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if final.Progress.Done != 4 || final.Progress.Total != 4 {
		t.Errorf("final progress %+v, want 4/4", final.Progress)
	}

	code, body, hdr := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("result Content-Type = %q", ct)
	}
	var out struct {
		Kind         string `json:"kind"`
		Trials       int    `json:"trials"`
		Solved       int    `json:"solved"`
		TrialResults []struct {
			Trial  int `json:"trial"`
			Rounds int `json:"rounds"`
		} `json:"trial_results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("result body not JSON: %v\n%s", err, body)
	}
	if out.Kind != "sim" || out.Trials != 4 || len(out.TrialResults) != 4 {
		t.Errorf("result shape wrong: %+v", out)
	}
	if out.Solved == 0 {
		t.Error("no trial solved contention resolution on a 16-node disk")
	}
}

func TestServiceStreamCarriesLifecycleAndResult(t *testing.T) {
	ts, _ := newTestService(t, Options{Workers: 1})
	st, _ := postJob(t, ts, smallSimJob)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}

	type event struct {
		Event       string `json:"event"`
		ID          string `json:"id"`
		State       string `json:"state"`
		Done        int    `json:"done"`
		Total       int    `json:"total"`
		ContentType string `json:"content_type"`
		Body        string `json:"body"`
		Error       string `json:"error"`
	}
	var events []event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	first, last := events[0], events[len(events)-1]
	if first.Event != "job" || first.ID != st.ID {
		t.Errorf("first event = %+v, want job/%s", first, st.ID)
	}
	if last.Event != "result" || last.State != string(StateDone) {
		t.Fatalf("last event = %+v, want result/done", last)
	}

	// The streamed body is the same bytes the result endpoint serves.
	_, resultBody, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if last.Body != string(resultBody) {
		t.Error("streamed result body differs from GET /result body")
	}
}

func TestServiceCacheHitIsByteIdenticalToColdRun(t *testing.T) {
	ts, exec := newTestService(t, Options{Workers: 1})

	cold, resp := postJob(t, ts, smallSimJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold submit: HTTP %d", resp.StatusCode)
	}
	if awaitDone(t, ts, cold.ID).State != StateDone {
		t.Fatal("cold run failed")
	}
	_, coldBody, coldHdr := getBody(t, ts.URL+"/v1/jobs/"+cold.ID+"/result")

	warm, resp := postJob(t, ts, smallSimJob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit submit: HTTP %d, want 200", resp.StatusCode)
	}
	if !warm.Cached || warm.State != StateDone {
		t.Fatalf("second submit not a cache hit: %+v", warm)
	}
	if warm.ID == cold.ID {
		t.Error("cache hit reused the cold job's id")
	}
	_, warmBody, warmHdr := getBody(t, ts.URL+"/v1/jobs/"+warm.ID+"/result")

	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("cache-served body differs from computed body:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	if coldHdr.Get("X-Job-Cached") != "false" || warmHdr.Get("X-Job-Cached") != "true" {
		t.Errorf("X-Job-Cached cold=%q warm=%q", coldHdr.Get("X-Job-Cached"), warmHdr.Get("X-Job-Cached"))
	}
	if exec.Cache().Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", exec.Cache().Len())
	}
}

func TestServiceResultsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	// The service-determinism contract: the same job produces the same
	// bytes whatever the worker pool or per-job parallelism.
	run := func(workers, parallel int) []byte {
		ts, _ := newTestService(t, Options{Workers: workers, JobParallelism: parallel, CacheEntries: -1})
		st, _ := postJob(t, ts, smallSimJob)
		if awaitDone(t, ts, st.ID).State != StateDone {
			t.Fatalf("run at workers=%d parallel=%d failed", workers, parallel)
		}
		_, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		return body
	}
	serial := run(1, 1)
	wide := run(8, 8)
	if !bytes.Equal(serial, wide) {
		t.Errorf("result bytes depend on parallelism:\n-workers 1: %s\n-workers 8: %s", serial, wide)
	}
}

func TestServiceQueueFullReturns429(t *testing.T) {
	stub := newBlockingRun()
	ts, _ := newTestService(t, Options{Workers: 1, QueueDepth: 1, run: stub.run})
	defer close(stub.release)

	if _, resp := postJob(t, ts, `{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"seed":1}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	<-stub.started
	if _, resp := postJob(t, ts, `{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"seed":2}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", resp.StatusCode)
	}
	_, resp := postJob(t, ts, `{"sim":{"n":16,"deploy":"disk","algo":"fixed"},"seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestServiceDeleteCancelsMidRun(t *testing.T) {
	stub := newBlockingRun()
	ts, _ := newTestService(t, Options{Workers: 1, run: stub.run})
	st, _ := postJob(t, ts, smallSimJob)
	<-stub.started // the job is running and parked on its context

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}

	final := awaitDone(t, ts, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.State)
	}
	code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusConflict {
		t.Errorf("result of cancelled job: HTTP %d (%s), want 409", code, body)
	}
}

func TestServiceExperimentJob(t *testing.T) {
	ts, _ := newTestService(t, Options{Workers: 1})
	st, resp := postJob(t, ts, `{"experiment":"E5","quick":true,"trials":2,"seed":9}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := awaitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("experiment job ended %s (%s)", final.State, final.Error)
	}
	_, body, hdr := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{"==== E5", "Claim:"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("experiment body missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "completed in") {
		t.Error("experiment body contains a timing line; bodies must be deterministic")
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	ts, _ := newTestService(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"unknown field", `{"bogus":1}`, http.StatusBadRequest},
		{"invalid spec", `{"sim":{"n":0,"deploy":"disk","algo":"fixed"}}`, http.StatusBadRequest},
		{"unknown algo", `{"sim":{"n":8,"deploy":"disk","algo":"magic"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, resp := postJob(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/j999"); code != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d, want 404", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/j999/result"); code != http.StatusNotFound {
		t.Errorf("unknown job result: HTTP %d, want 404", code)
	}
}

func TestServiceResultOfRunningJobConflicts(t *testing.T) {
	stub := newBlockingRun()
	ts, _ := newTestService(t, Options{Workers: 1, run: stub.run})
	defer close(stub.release)
	st, _ := postJob(t, ts, smallSimJob)
	<-stub.started
	code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusConflict || !strings.Contains(string(body), "running") {
		t.Errorf("result while running: HTTP %d %s, want 409/running", code, body)
	}
}

func TestServiceHealthAndMetricsEndpoints(t *testing.T) {
	ts, exec := newTestService(t, Options{Workers: 1})
	if code, body, _ := getBody(t, ts.URL+"/healthz"); code != 200 || string(body) != "ok\n" {
		t.Errorf("healthz: %d %q", code, body)
	}
	if code, body, _ := getBody(t, ts.URL+"/readyz"); code != 200 || string(body) != "ready\n" {
		t.Errorf("readyz: %d %q", code, body)
	}
	code, body, hdr := getBody(t, ts.URL+"/metrics")
	if code != 200 || hdr.Get("Content-Type") != "application/x-ndjson" {
		t.Errorf("metrics: %d %q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(string(body), `"name":"serve.jobs_submitted"`) {
		t.Errorf("metrics missing serve counters:\n%s", body)
	}

	if err := exec.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || string(body) != "draining\n" {
		t.Errorf("readyz while draining: %d %q, want 503 draining", code, body)
	}
	if _, resp := postJob(t, ts, smallSimJob); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

func TestDaemonStartServeShutdown(t *testing.T) {
	var log bytes.Buffer
	d, err := StartDaemon(DaemonConfig{
		Addr:      "127.0.0.1:0",
		Executor:  Options{Workers: 1},
		LogWriter: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("http://%s", d.Addr())

	code, _, _ := getBody(t, base+"/healthz")
	if code != 200 {
		t.Fatalf("healthz over TCP: %d", code)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(smallSimJob))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Graceful drain: the accepted job finished before shutdown returned.
	if s := d.Executor(); true {
		job, ok := s.Job(st.ID)
		if !ok || job.Snapshot().State != StateDone {
			t.Errorf("job after drain: ok=%t state=%v", ok, job.Snapshot().State)
		}
	}
	if !strings.Contains(log.String(), `"event":"http"`) {
		t.Errorf("request log missing http events: %q", log.String())
	}
}

// TestDaemonBoundsHeaderReads: the daemon's HTTP server drops clients that
// do not finish their request headers in time, so idle or trickling
// connections cannot pile up.
func TestDaemonBoundsHeaderReads(t *testing.T) {
	d, err := StartDaemon(DaemonConfig{Addr: "127.0.0.1:0", Executor: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	if got := d.srv.ReadHeaderTimeout; got <= 0 || got != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", got, readHeaderTimeout)
	}
}
