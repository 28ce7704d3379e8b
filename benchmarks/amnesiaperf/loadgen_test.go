package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestTimetableIsSeedDetermined(t *testing.T) {
	streams := []stream{{perSec: 200, from: []int{0, 1, 2, 3}}, {perSec: 20, from: []int{7}}}
	a := timetable(42, 5*time.Second, streams)
	b := timetable(42, 5*time.Second, streams)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different timetables")
	}
	if c := timetable(43, 5*time.Second, streams); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same timetable")
	}
	// Roughly rate × duration arrivals, all inside the phase, in due order.
	if n := len(a); n < 900 || n > 1300 {
		t.Errorf("%d arrivals for 220/s over 5s", n)
	}
	for i, e := range a {
		if e.due < 0 || e.due >= 5*time.Second {
			t.Fatalf("entry %d due at %v, outside the phase", i, e.due)
		}
		if i > 0 && e.due < a[i-1].due {
			t.Fatalf("entry %d is due before entry %d", i, i-1)
		}
	}
	if len(timetable(1, time.Second, []stream{{perSec: 0, from: []int{1}}, {perSec: 5}})) != 0 {
		t.Error("a stream without a rate or without operations must stay silent")
	}
	// A periodic stream has the same count whatever the seed.
	for seed := uint64(0); seed < 20; seed++ {
		if n := len(timetable(seed, 10*time.Second, []stream{{perSec: 4, from: []int{0}, periodic: true}})); n != 40 {
			t.Fatalf("seed %d: %d periodic arrivals at 4/s over 10s, want 40", seed, n)
		}
	}
}

// A timetable in reference time: on a machine 25 % slow a 10 s phase
// carries what an 8 s phase carries at reference speed, stretched.
func TestDilatedTimetable(t *testing.T) {
	streams := []stream{{perSec: 200, from: []int{0, 1}}, {perSec: 4, from: []int{2}, periodic: true}}
	ref := timetable(9, 8*time.Second, streams)
	got := dilated(9, 10*time.Second, streams, 1.25)
	if len(got) != len(ref) {
		t.Fatalf("%d arrivals, want the %d of 8 reference seconds", len(got), len(ref))
	}
	for i, e := range got {
		if e.op != ref[i].op {
			t.Fatalf("entry %d runs operation %d, the reference timetable %d", i, e.op, ref[i].op)
		}
		if want := time.Duration(float64(ref[i].due) * 1.25); e.due != want {
			t.Fatalf("entry %d due at %v, want %v", i, e.due, want)
		}
		if e.due >= 10*time.Second {
			t.Fatalf("entry %d due at %v, outside the phase", i, e.due)
		}
	}
	if !reflect.DeepEqual(dilated(9, 8*time.Second, streams, 1), ref) {
		t.Error("at reference speed the timetable must be the plain one")
	}
}

func TestErrScannerAcrossPieces(t *testing.T) {
	body := []byte(`{"columns":["a"],"ints":[true],"rows":[[1],[2]],"error":"boom"}`)
	for cut := 0; cut <= len(body); cut++ {
		var s errScanner
		s.feed(body[:cut])
		s.feed(body[cut:])
		if !s.found {
			t.Fatalf("missed the error member when the body splits at %d", cut)
		}
	}
	var byteWise errScanner
	for i := range body {
		byteWise.feed(body[i : i+1])
	}
	if !byteWise.found {
		t.Fatal("missed the error member fed one byte at a time")
	}
	var clean errScanner
	clean.feed([]byte(`{"columns":["a"],"ints":[true],"rows":[[1],[2]]}`))
	if clean.found {
		t.Fatal("found an error member in a clean body")
	}
}

// In an open loop a stall is charged to every request that waited
// behind it: the second request is due while the first is still being
// served, is sent late, and its latency counts the wait.
func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte(`{"columns":[],"ints":[],"rows":[]}`))
	}))
	defer ts.Close()
	c := newClient(0, ts.URL, []op{{class: clsPoint, path: "/query", body: queryBody("SELECT 1"), stmt: -1}}, 0)
	defer c.close()
	c.runOpen(time.Now(), []ttEntry{{0, 0}, {time.Millisecond, 0}}, true)
	if len(c.samples) != 2 {
		t.Fatalf("%d samples, want 2", len(c.samples))
	}
	second := c.samples[1]
	if second.failed {
		t.Fatal("the request failed")
	}
	if late := second.sent - second.due; late < service/2 {
		t.Errorf("second request sent %v after it was due; the first should have held the connection for %v", late, service)
	}
	if got := dueLatency(second.due, second.done); got < 2*service-5*time.Millisecond {
		t.Errorf("latency from due = %v, want about %v (wait plus service)", got, 2*service)
	}
}

// A non-200 and a body ending in the "error" member are failed
// operations; nothing is retried.
func TestFailuresAreCountedNotRetried(t *testing.T) {
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		switch r.URL.Path {
		case "/query":
			w.Write([]byte(`{"columns":["a"],"ints":[true],"rows":[[1]],"error":"scan failed"}`))
		default:
			http.Error(w, `{"error":"read-only"}`, http.StatusServiceUnavailable)
		}
	}))
	defer ts.Close()
	c := newClient(0, ts.URL, nil, 0)
	defer c.close()
	for _, o := range []op{{path: "/query", stmt: -1}, {path: "/insert", stmt: -1}} {
		if _, _, _, ok := c.post(&o); ok {
			t.Errorf("%s: a failed operation was reported as a success", o.path)
		}
	}
	if calls != 2 {
		t.Errorf("%d requests reached the server, want 2 (no retries)", calls)
	}
}
