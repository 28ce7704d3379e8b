package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"amnesiadb"
)

// admissionServer builds a server with one execution slot and a
// one-deep wait queue over a table large enough that an unread
// streaming response blocks its handler in streamResult — holding the
// slot for as long as the test wants via client-side backpressure.
func admissionServer(t *testing.T) (*httptest.Server, *Server, *amnesiadb.DB) {
	t.Helper()
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1, CacheEntries: 16})
	tab, err := db.CreateTable("big", "a")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 400_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := tab.InsertColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	h := NewConfigured(db, Config{MaxQueries: 1, QueueDepth: 1})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, h, db
}

func postQuery(t *testing.T, url, sqlText string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": sqlText})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func healthz(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// blockingWriter is a ResponseWriter whose Write parks until released:
// it stands in for a client that stopped reading, pinning the handler
// inside streamResult with its admission slot held — deterministically,
// without depending on socket buffer sizes.
type blockingWriter struct {
	header  http.Header
	started chan struct{} // closed on the first Write
	release chan struct{} // closing it lets Writes pass through
	once    sync.Once
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{
		header:  make(http.Header),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return len(p), nil
}

func queryRequestFor(t *testing.T, sqlText string) *http.Request {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": sqlText})
	return httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
}

// TestAdmissionShedsAndRecovers pins the overload contract: with the
// single slot held by a streaming query and one request queued, the
// next arrival is shed with 429 + Retry-After; once the slot-holder
// drains, the queued request completes and fresh requests are admitted
// again.
func TestAdmissionShedsAndRecovers(t *testing.T) {
	_, h, _ := admissionServer(t)

	// Occupy the slot: a streaming query whose writer blocks after the
	// first chunk, exactly like a stalled client.
	hold := newBlockingWriter()
	holderDone := make(chan struct{})
	go func() {
		h.ServeHTTP(hold, queryRequestFor(t, "SELECT a FROM big"))
		close(holderDone)
	}()
	select {
	case <-hold.started:
	case <-time.After(10 * time.Second):
		t.Fatal("holder query never started streaming")
	}

	// Fill the one queue seat with a second request; wait until the
	// server counts it queued so the test is race-free.
	queuedRec := httptest.NewRecorder()
	queuedDone := make(chan struct{})
	go func() {
		h.ServeHTTP(queuedRec, queryRequestFor(t, "SELECT COUNT(*) FROM big"))
		close(queuedDone)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for h.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the third arrival is shed immediately.
	shedRec := httptest.NewRecorder()
	h.ServeHTTP(shedRec, queryRequestFor(t, "SELECT COUNT(*) FROM big"))
	if shedRec.Code != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", shedRec.Code)
	}
	if got := shedRec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}

	// Unstick the holder: its handler finishes, releasing the slot to
	// the queued request, which must now complete successfully.
	close(hold.release)
	select {
	case <-holderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("holder did not finish after release")
	}
	select {
	case <-queuedDone:
		if queuedRec.Code != http.StatusOK {
			t.Fatalf("queued request finished with %d", queuedRec.Code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request did not complete after slot release")
	}

	// Recovery: with the system idle again, a fresh query is admitted.
	okRec := httptest.NewRecorder()
	h.ServeHTTP(okRec, queryRequestFor(t, "SELECT COUNT(*) FROM big"))
	if okRec.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d", okRec.Code)
	}
}

// TestHealthzReportsAndDrainRefuses pins the observability and
// shutdown surface: /healthz exposes pool width, admission bounds and
// cache counters; StartDraining flips it to "draining" and new queries
// get 503 while /healthz stays served.
func TestHealthzReportsAndDrainRefuses(t *testing.T) {
	ts, h, db := admissionServer(t)

	// Prime the cache with a repeated statement so the counters move.
	for i := 0; i < 2; i++ {
		resp := postQuery(t, ts.URL, "SELECT COUNT(*) FROM big")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rep := healthz(t, ts.URL)
	if rep["status"] != "ok" {
		t.Fatalf("status = %v", rep["status"])
	}
	adm := rep["admission"].(map[string]any)
	if adm["max_queries"].(float64) != 1 || adm["queue_depth"].(float64) != 1 {
		t.Fatalf("admission bounds = %v", adm)
	}
	pool := rep["pool"].(map[string]any)
	if pool["workers"].(float64) != float64(db.PoolStats().Workers) {
		t.Fatalf("pool workers = %v, want %d", pool["workers"], db.PoolStats().Workers)
	}
	cache := rep["cache"].(map[string]any)
	if cache["result_hits"].(float64) < 1 {
		t.Fatalf("cache counters did not move: %v", cache)
	}

	h.StartDraining()
	refused := postQuery(t, ts.URL, "SELECT COUNT(*) FROM big")
	defer refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", refused.StatusCode)
	}
	if rep := healthz(t, ts.URL); rep["status"] != "draining" {
		t.Fatalf("healthz status while draining = %v", rep["status"])
	}
}

// TestCacheHeaderOnQuery pins the hit/miss response header clients and
// the bench harness read.
func TestCacheHeaderOnQuery(t *testing.T) {
	ts, _, _ := admissionServer(t)
	first := postQuery(t, ts.URL, "SELECT SUM(a) FROM big WHERE a < 1000")
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	if got := first.Header.Get("X-Amnesia-Cache"); got != "miss" {
		t.Fatalf("first query cache header = %q, want miss", got)
	}
	second := postQuery(t, ts.URL, "SELECT SUM(a) FROM big WHERE a < 1000")
	io.Copy(io.Discard, second.Body)
	second.Body.Close()
	if got := second.Header.Get("X-Amnesia-Cache"); got != "hit" {
		t.Fatalf("repeat query cache header = %q, want hit", got)
	}
}
