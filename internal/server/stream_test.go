package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"amnesiadb"
	"amnesiadb/internal/sql"
)

// TestTablesReportsKinds pins the /tables catalog listing: flat tables
// carry kind "table", partitioned ones "partitioned" plus their shard
// count, and /stats and /precision serve both kinds.
func TestTablesReportsKinds(t *testing.T) {
	ts, db := newServer(t)
	if _, err := db.CreateTable("flat", "a"); err != nil {
		t.Fatal(err)
	}
	pt, err := db.CreatePartitionedTable("sharded", "v", 1000, 4, "uniform", 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Insert([]int64{1, 2, 3, 500, 900}); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/tables")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tables status %d", resp.StatusCode)
	}
	var rels []amnesiadb.RelationInfo
	if err := json.Unmarshal(body, &rels); err != nil {
		t.Fatal(err)
	}
	want := []amnesiadb.RelationInfo{
		{Name: "flat", Kind: "table"},
		{Name: "sharded", Kind: "partitioned", Shards: 4},
	}
	if len(rels) != 2 || rels[0] != want[0] || rels[1] != want[1] {
		t.Fatalf("tables = %+v, want %+v", rels, want)
	}

	resp, body = get(t, ts.URL+"/stats?table=sharded")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned stats status %d: %s", resp.StatusCode, body)
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["Tuples"].(float64) != 5 {
		t.Fatalf("partitioned stats = %v", stats)
	}

	resp, body = get(t, ts.URL+"/precision?table=sharded&lo=0&hi=1000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned precision status %d: %s", resp.StatusCode, body)
	}
	var prec map[string]float64
	if err := json.Unmarshal(body, &prec); err != nil {
		t.Fatal(err)
	}
	if prec["precision"] != 1 || prec["returned"] != 5 {
		t.Fatalf("partitioned precision = %v", prec)
	}
}

// TestQueryPartitionedTable pins the §4.4 serving loop: a /query against
// a partitioned table returns exactly PartitionedTable.Select's rows.
func TestQueryPartitionedTable(t *testing.T) {
	ts, db := newServer(t)
	pt, err := db.CreatePartitionedTable("p", "v", 1000, 4, "uniform", 1000)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i * 3 % 1000)
	}
	if err := pt.Insert(vals); err != nil {
		t.Fatal(err)
	}
	want, err := pt.Select(100, 400)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, ts.URL+"/query", map[string]any{"sql": "SELECT v FROM p WHERE v >= 100 AND v < 400"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if got := r.([]any)[0].(float64); got != float64(want[i]) {
			t.Fatalf("row %d = %v, want %d", i, got, want[i])
		}
	}
	if _, ok := out["error"]; ok {
		t.Fatalf("unexpected error member: %v", out["error"])
	}
}

// TestQueryJoin pins the HTTP JOIN path against DB.Join: the streamed
// rows must be byte-identical to the engine's direct join.
func TestQueryJoin(t *testing.T) {
	ts, db := newServer(t)
	a, err := db.CreateTable("a", "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b", "k", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(map[string][]int64{"k": {1, 2, 2, 3}, "v": {10, 20, 21, 30}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(map[string][]int64{"k": {2, 3, 3, 5}, "w": {200, 300, 301, 500}}); err != nil {
		t.Fatal(err)
	}
	joined, err := db.Join(context.Background(), a, "k", b, "k", amnesiadb.All())
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, ts.URL+"/query", map[string]any{"sql": "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != len(joined) {
		t.Fatalf("rows = %d, want %d", len(rows), len(joined))
	}
	vcol, err := a.Select("v", amnesiadb.All())
	if err != nil {
		t.Fatal(err)
	}
	wcol, err := b.Select("w", amnesiadb.All())
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range joined {
		row := rows[i].([]any)
		if row[0].(float64) != float64(vcol.Values[jr.LeftRow]) || row[1].(float64) != float64(wcol.Values[jr.RightRow]) {
			t.Fatalf("row %d = %v, want (%d, %d)", i, row, vcol.Values[jr.LeftRow], wcol.Values[jr.RightRow])
		}
	}
}

// flushCounter is an http.ResponseWriter + Flusher that counts flushes,
// so the streaming contract — multiple incremental flushes for large
// results — is directly observable.
type flushCounter struct {
	header  http.Header
	body    bytes.Buffer
	status  int
	flushes int
}

func newFlushCounter() *flushCounter { return &flushCounter{header: make(http.Header)} }

func (f *flushCounter) Header() http.Header { return f.header }

func (f *flushCounter) Write(p []byte) (int, error) { return f.body.Write(p) }

func (f *flushCounter) WriteHeader(status int) { f.status = status }

func (f *flushCounter) Flush() { f.flushes++ }

// TestQueryStreamsInChunks drives a result far larger than one stream
// chunk through the handler and counts flushes: the response must leave
// in multiple increments, not one buffered write.
func TestQueryStreamsInChunks(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	tab, err := db.CreateTable("big", "a")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000 // ~5 stream chunks of 4096
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := tab.InsertColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	body, _ := json.Marshal(map[string]string{"sql": "SELECT a FROM big"})
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	fc := newFlushCounter()
	srv.ServeHTTP(fc, req)
	if fc.status != http.StatusOK {
		t.Fatalf("status %d: %s", fc.status, fc.body.String())
	}
	if fc.flushes < 3 {
		t.Fatalf("flushes = %d, want several for %d rows", fc.flushes, n)
	}
	var out struct {
		Columns []string    `json:"columns"`
		Rows    [][]float64 `json:"rows"`
		Error   string      `json:"error"`
	}
	if err := json.Unmarshal(fc.body.Bytes(), &out); err != nil {
		t.Fatalf("streamed body is not valid JSON: %v", err)
	}
	if len(out.Rows) != n || out.Error != "" {
		t.Fatalf("rows = %d (error %q), want %d", len(out.Rows), out.Error, n)
	}
}

// materializedDB holds big(a, b): n rows, a ascending, b descending —
// and a small other(a, c) to join it with.
func materializedDB(t testing.TB, n int) *amnesiadb.DB {
	t.Helper()
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1, CacheEntries: 16})
	t.Cleanup(func() { db.Close() })
	a, b := make([]int64, n), make([]int64, n)
	for i := range a {
		a[i], b[i] = int64(i), int64(n-i)
	}
	big, err := db.CreateTable("big", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Insert(map[string][]int64{"a": a, "b": b}); err != nil {
		t.Fatal(err)
	}
	other, err := db.CreateTable("other", "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Insert(map[string][]int64{"a": {3, 5, 5, 8}, "c": {30, 50, 51, 80}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// serveQuery answers one /query through the handler into a flushCounter.
func serveQuery(t *testing.T, srv *Server, q string) *flushCounter {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": q})
	fc := newFlushCounter()
	srv.ServeHTTP(fc, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if fc.status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", q, fc.status, fc.body.String())
	}
	return fc
}

// TestMaterializedAnswersNeverFlush pins the write contract of
// streamResult: an answer whose rows are all in hand before the first
// Next — a cache hit, an aggregate, a top-k, a join, LIMIT 0 — is never
// flushed, so over a real connection it arrives with a Content-Length
// instead of chunked encoding; the body is the same either way.
func TestMaterializedAnswersNeverFlush(t *testing.T) {
	cases := []struct {
		name, sql string
		hit       bool // answered from the result cache
	}{
		{"cache hit", "SELECT a FROM big WHERE a >= 100 AND a < 108", true},
		{"count", "SELECT COUNT(*) FROM big WHERE a >= 100 AND a < 164", false},
		{"top-k", "SELECT a, b FROM big WHERE a >= 100 AND a < 164 ORDER BY b LIMIT 10", false},
		{"join", "SELECT big.b, other.c FROM big JOIN other ON big.a = other.a", false},
		{"limit 0", "SELECT a FROM big LIMIT 0", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv := New(materializedDB(t, 20000))
			if c.hit {
				if fc := serveQuery(t, srv, c.sql); fc.flushes == 0 {
					t.Fatal("the live run of a pipelined select never flushed")
				}
			}
			fc := serveQuery(t, srv, c.sql)
			if fc.flushes != 0 {
				t.Errorf("flushes = %d, want 0", fc.flushes)
			}
			if got, want := fc.header.Get("X-Amnesia-Cache") == "hit", c.hit; got != want {
				t.Errorf("cache hit = %v, want %v", got, want)
			}

			ts := httptest.NewServer(New(materializedDB(t, 20000)))
			defer ts.Close()
			body, _ := json.Marshal(map[string]string{"sql": c.sql})
			post := func() (*http.Response, []byte) {
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				got, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp, got
			}
			if c.hit {
				post() // the live run that fills the cache
			}
			resp, got := post()
			if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("Content-Length %d, Transfer-Encoding %v; want %d and none",
					resp.ContentLength, resp.TransferEncoding, len(got))
			}
			if !bytes.Equal(got, fc.body.Bytes()) {
				t.Errorf("body over the wire %s, through the handler %s", got, fc.body.Bytes())
			}
		})
	}
}

// TestLargeResultsFlushOnlyWhenPipelined drives 20k rows both ways: a
// sort with no LIMIT has every row in hand before the first Next, so
// it is never flushed (net/http writes it out as its buffer fills) and
// its body is exactly the JSON of db.Query's result; the unordered
// select is pipelined and flushes after every chunk.
func TestLargeResultsFlushOnlyWhenPipelined(t *testing.T) {
	const n = 20000
	db := materializedDB(t, n)
	srv := New(db)

	const sorted = "SELECT a, b FROM big ORDER BY b"
	fc := serveQuery(t, srv, sorted)
	if fc.flushes != 0 {
		t.Errorf("sorted: flushes = %d, want 0", fc.flushes)
	}
	res, err := db.Query(sorted)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Columns []string    `json:"columns"`
		Ints    []bool      `json:"ints"`
		Rows    [][]float64 `json:"rows"`
	}{res.Columns, res.Ints, res.Rows})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n || !bytes.Equal(fc.body.Bytes(), want) {
		t.Errorf("sorted body (%d bytes) differs from db.Query's %d rows (%d bytes)", fc.body.Len(), len(res.Rows), len(want))
	}

	fc = serveQuery(t, srv, "SELECT a FROM big")
	if chunks := (n + sql.StreamChunkRows - 1) / sql.StreamChunkRows; fc.flushes < chunks {
		t.Errorf("unordered: flushes = %d, want at least one per chunk (%d)", fc.flushes, chunks)
	}
}

// FuzzQueryHeader holds appendQueryHeader to encoding/json, as
// TestAppendRowJSONMatchesEncodingJSON holds the row encoder: for any
// column names (names split on '|', so one input can hold several) and
// any ints flags, it equals json.Marshal(queryHeader{…}) reopened with
// `,"rows":[`.
func FuzzQueryHeader(f *testing.F) {
	for _, seed := range []string{
		"id|score", "COUNT(*)", "big.a|other.c", "", "|", `a"b|c\d`, "<a>&b",
		"café|😀", "\xff\xfe", "\x00\x1f\x7f", "  ", "tab\there",
	} {
		f.Add(seed, uint64(0b1010))
	}
	f.Fuzz(func(t *testing.T, names string, flags uint64) {
		columns := strings.Split(names, "|")
		ints := make([]bool, len(columns))
		for i := range ints {
			ints[i] = flags>>(i%64)&1 == 1
		}
		for _, h := range []queryHeader{{columns, ints}, {nil, nil}, {[]string{}, []bool{}}} {
			want, err := json.Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want[:len(want)-1], `,"rows":[`...)
			if got := appendQueryHeader(nil, h.Columns, h.Ints); !bytes.Equal(got, want) {
				t.Fatalf("appendQueryHeader(%q, %v) = %s, want %s", h.Columns, h.Ints, got, want)
			}
		}
	})
}

// BenchmarkServeCachedQuery prices a result-cache hit end to end — one
// keep-alive client against an httptest.Server, request encoding,
// handler, response framing and client read — on hot_small's two
// statement shapes. allocs/op counts both sides of the connection.
func BenchmarkServeCachedQuery(b *testing.B) {
	for _, q := range []struct{ name, sql string }{
		{"count", "SELECT COUNT(*) FROM big WHERE a >= 1000 AND a < 1064"},
		{"top10", "SELECT a, b FROM big WHERE a >= 1000 AND a < 1064 ORDER BY b LIMIT 10"},
	} {
		b.Run(q.name, func(b *testing.B) {
			ts := httptest.NewServer(New(materializedDB(b, 64<<10)))
			defer ts.Close()
			client := ts.Client()
			// Unescaped, as the benchmark's load generator sends it
			// (json.Marshal would escape the < and >).
			body := []byte(`{"sql":"` + q.sql + `"}`)
			// query answers one request and returns its cache header.
			query := func() string {
				resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, err %v", resp.StatusCode, err)
				}
				return resp.Header.Get("X-Amnesia-Cache")
			}
			query() // the miss that fills the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if query() != "hit" {
					b.Fatal("not a cache hit")
				}
			}
		})
	}
}

// errAfterSource yields one good chunk, then fails — the shape of a
// mid-stream execution failure after the 200 is committed.
type errAfterSource struct {
	sent bool
}

func (s *errAfterSource) NextChunk() (*sql.Chunk, error) {
	if s.sent {
		return nil, errors.New("disk caught fire")
	}
	s.sent = true
	return &sql.Chunk{Len: 2, Cols: []sql.Col{{Ints: []int64{1, 2}}}}, nil
}

func (s *errAfterSource) Pipelined() bool { return true }

// TestMidStreamErrorSentinel pins the bugfix for silently truncated
// streams: a failure after rows have been sent must close the JSON body
// with a trailing "error" member, so clients can detect the partial
// result instead of trusting a 200.
func TestMidStreamErrorSentinel(t *testing.T) {
	fc := newFlushCounter()
	streamResult(fc, []string{"a"}, []bool{true}, &errAfterSource{})
	if fc.status != http.StatusOK {
		t.Fatalf("status %d, want 200 (already committed)", fc.status)
	}
	raw := fc.body.String()
	var out struct {
		Columns []string    `json:"columns"`
		Rows    [][]float64 `json:"rows"`
		Error   string      `json:"error"`
	}
	if err := json.Unmarshal(fc.body.Bytes(), &out); err != nil {
		t.Fatalf("sentinel body is not valid JSON: %v\n%s", err, raw)
	}
	if !strings.Contains(out.Error, "disk caught fire") {
		t.Fatalf("error member = %q, want the stream failure", out.Error)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("partial rows = %d, want the 2 delivered before the failure", len(out.Rows))
	}
}

// TestPartitionedWriteSurface pins the catalog unification on the write
// endpoints: /insert routes to partitioned tables (single column only),
// /policy explains itself instead of claiming the table is unknown, and
// /precision validates the col parameter for both kinds.
func TestPartitionedWriteSurface(t *testing.T) {
	ts, db := newServer(t)
	if _, err := db.CreatePartitionedTable("p", "v", 1000, 4, "uniform", 100); err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, ts.URL+"/insert", map[string]any{
		"table": "p", "columns": map[string][]int64{"v": {1, 500, 900}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned insert status %d: %v", resp.StatusCode, out)
	}
	if out["Tuples"].(float64) != 3 {
		t.Fatalf("partitioned insert stats = %v", out)
	}
	resp, _ = post(t, ts.URL+"/insert", map[string]any{
		"table": "p", "columns": map[string][]int64{"wrong": {1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-column insert status %d", resp.StatusCode)
	}
	resp, out = post(t, ts.URL+"/policy", map[string]any{
		"table": "p", "strategy": "fifo", "budget": 10,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partitioned policy status %d: %v", resp.StatusCode, out)
	}
	resp, _ = get(t, ts.URL+"/precision?table=p&col=nosuch&lo=0&hi=100")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-col precision status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/precision?table=p&col=v&lo=0&hi=100")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good-col precision status %d", resp.StatusCode)
	}
}

// TestJoinUnknownTableIs404AndBadJoinIs400 pins the pre-stream status
// mapping for the new join grammar.
func TestJoinUnknownTableIs404AndBadJoinIs400(t *testing.T) {
	ts, db := newServer(t)
	if _, err := db.CreateTable("a", "k"); err != nil {
		t.Fatal(err)
	}
	resp, _ := post(t, ts.URL+"/query", map[string]any{"sql": "SELECT a.k, b.k FROM a JOIN b ON a.k = b.k"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown join table status %d", resp.StatusCode)
	}
	if _, err := db.CreatePartitionedTable("p", "v", 100, 2, "uniform", 100); err != nil {
		t.Fatal(err)
	}
	resp, _ = post(t, ts.URL+"/query", map[string]any{"sql": "SELECT a.k, p.v FROM a JOIN p ON a.k = p.v"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partitioned join status %d", resp.StatusCode)
	}
}

// TestAppendChunkJSONMatchesEncodingJSON pins the chunk encoder
// against encoding/json of the row form byte for byte, across the
// float shapes query results produce (integral floats, AVG fractions,
// extreme magnitudes, exponent formatting), the NaN -> null
// translation, and integer cells either side of 2^53 next to them.
func TestAppendChunkJSONMatchesEncodingJSON(t *testing.T) {
	floats := [][]float64{
		{0, 1, -1, 42},
		{0.5, -2.25, 1.0 / 3.0},
		{9.2e18, -9.2e18, 1e20, 1e21, 1.5e22},
		{1e-6, 9.9e-7, 1e-9, -2.5e-8},
		{123456789.123456, -0.000244140625},
	}
	for _, col := range floats {
		ints := make([]int64, len(col))
		rows := make([][]float64, len(col))
		for i, v := range col {
			ints[i] = (int64(i)-2)<<53 + int64(i) // −2^54, −2^53+1, 2, 2^53+3, 2^54+4
			rows[i] = []float64{v, float64(ints[i])}
		}
		c := &sql.Chunk{Len: len(col), Cols: []sql.Col{{Floats: col}, {Ints: ints}}}
		got := "[" + string(appendChunkJSON(nil, c, true)) + "]"
		want, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("appendChunkJSON(%v, %v) = %s, want %s", col, ints, got, want)
		}
	}
	// NaN cells become nulls (encoding/json would reject them), and a
	// chunk that does not open the response leads with a comma.
	c := &sql.Chunk{Len: 2, Cols: []sql.Col{{Floats: []float64{math.NaN(), 3}}, {Ints: []int64{1, math.MinInt64}}}}
	if got := string(appendChunkJSON(nil, c, false)); got != ",[null,1],[3,-9223372036854776000]" {
		t.Fatalf("NaN chunk = %s", got)
	}
}

// FuzzAppendJSONFloat holds the float cell encoder — integral fast path
// included — to encoding/json for every float64 it accepts; NaN takes
// the null path and infinities never reach the encoder (no int64
// column or aggregate of one produces them).
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2,
		1e21, 1e-7, math.NaN(), math.MaxInt64, math.MinInt64, 0.5, -2.25,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsInf(v, 0) {
			t.Skip()
		}
		got := string(appendFloatCell(nil, v))
		want := "null"
		if !math.IsNaN(v) {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want = string(b)
		}
		if got != want {
			t.Fatalf("appendFloatCell(%v) = %s, want %s", v, got, want)
		}
	})
}

// FuzzAppendIntCell holds the integer cell encoder to the float row
// form it replaced: for every int64, the bytes of float64(v) through
// appendJSONFloat, whose digits come from strconv — so the hand-rolled
// digit writer is held to strconv, and cells beyond 2^53 keep their
// rounding.
func FuzzAppendIntCell(f *testing.F) {
	for _, v := range []int64{
		0, 1, -1, 1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 1, -(1<<53 + 1),
		1<<53 + 3, math.MaxInt64, math.MinInt64, math.MaxInt64 - 511, 1 << 62,
	} {
		f.Add(v)
	}
	// Every digit count, either side of each power of ten.
	for p := int64(10); p <= 1e16; p *= 10 {
		f.Add(p - 1)
		f.Add(p)
		f.Add(-p - 1)
	}
	f.Fuzz(func(t *testing.T, v int64) {
		// The cell lands after a row's opening bracket, in a buffer
		// with and without room for it.
		want := appendJSONFloat([]byte("["), float64(v))
		for _, b := range [][]byte{[]byte("["), append(make([]byte, 0, 32), '[')} {
			if got := appendIntCell(b, v); !bytes.Equal(got, want) {
				t.Fatalf("appendIntCell(%d) = %s, want %s", v, got, want)
			}
		}
	})
}

// TestQueryCancelledRequestContext pins the ctx propagation satellite at
// the HTTP surface: a request whose context is already cancelled cannot
// stream a full result — the body terminates with the cancellation in
// its trailing "error" member.
func TestQueryCancelledRequestContext(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	tab, err := db.CreateTable("big", "a")
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 200_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := tab.InsertColumn("a", vals); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	body, _ := json.Marshal(map[string]string{"sql": "SELECT a FROM big"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
	fc := newFlushCounter()
	srv.ServeHTTP(fc, req)
	var out struct {
		Rows  [][]float64 `json:"rows"`
		Error string      `json:"error"`
	}
	if err := json.Unmarshal(fc.body.Bytes(), &out); err != nil {
		t.Fatalf("cancelled-request body is not valid JSON: %v\n%s", err, fc.body.String())
	}
	if !strings.Contains(out.Error, context.Canceled.Error()) {
		t.Fatalf("error member = %q, want the context cancellation", out.Error)
	}
	if len(out.Rows) == len(vals) {
		t.Fatal("cancelled request streamed the full result")
	}
}

// BenchmarkAppendChunkJSON prices the cell encoder alone on one full
// two-column integer chunk, the shape of scan_stream's selects.
func BenchmarkAppendChunkJSON(b *testing.B) {
	c := &sql.Chunk{Len: sql.StreamChunkRows, Cols: []sql.Col{
		{Ints: make([]int64, sql.StreamChunkRows)}, {Ints: make([]int64, sql.StreamChunkRows)},
	}}
	for i := 0; i < c.Len; i++ {
		c.Cols[0].Ints[i] = int64(i) * 977
		c.Cols[1].Ints[i] = int64(i*7919) % (1 << 22)
	}
	buf := appendChunkJSON(nil, c, true)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendChunkJSON(buf[:0], c, true)
	}
}

// TestPrecisionInvertedRangeBothKinds pins /precision's bound handling
// across catalog kinds: lo > hi means the swapped range on a flat table
// and on a partitioned one alike, answering 200 with the same body as
// the ordered request instead of panicking in the shard fan-out.
func TestPrecisionInvertedRangeBothKinds(t *testing.T) {
	ts, db := newServer(t)
	vals := []int64{1, 6, 7, 9, 10, 500}
	flat, err := db.CreateTable("flat", "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.InsertColumn("v", vals); err != nil {
		t.Fatal(err)
	}
	pt, err := db.CreatePartitionedTable("sharded", "v", 1000, 4, "uniform", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Insert(vals); err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, name := range []string{"flat", "sharded"} {
		for _, q := range []string{"lo=5&hi=10", "lo=10&hi=5"} {
			resp, body := get(t, ts.URL+"/precision?table="+name+"&"+q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", name, q, resp.StatusCode, body)
			}
			bodies = append(bodies, string(body))
		}
	}
	for _, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatalf("precision bodies differ across bound order and kind: %q", bodies)
		}
	}
	if !strings.Contains(bodies[0], `"returned":3`) {
		t.Fatalf("precision over [5, 10) = %s, want 3 returned (6, 7, 9)", bodies[0])
	}
	got, err := pt.Select(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{6, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("partitioned Select(10, 5) = %v, want %v", got, want)
	}
}
