package server

import (
	"bytes"
	"encoding/json"
	"hash/crc64"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"amnesiadb"
	"amnesiadb/internal/sql"
)

// pinnedRows is the flat table's row count: three full stream chunks
// and a partial fourth, so unordered selects cross chunk boundaries.
const pinnedRows = 3*sql.StreamChunkRows + 1234

// pinnedExtremes are the integers a float64 cannot all hold: the cells
// either side of ±2^53 and the int64 bounds. The flat table's v column
// carries them every 997th row.
var pinnedExtremes = []int64{
	1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 1, -(1<<53 + 1),
	math.MaxInt64, math.MinInt64,
}

// pinnedDB is the catalog TestQueryResponseBytesPinned serves: a flat
// w(k, v) of pinnedRows rows (k ascending, v seeded and signed, with
// pinnedExtremes mixed in), a small j(k, x) that joins on k, and a
// partitioned p(v) over [0, 100000).
func pinnedDB(t *testing.T) *amnesiadb.DB {
	t.Helper()
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1, CacheEntries: 64})
	t.Cleanup(func() { db.Close() })
	k, v := make([]int64, pinnedRows), make([]int64, pinnedRows)
	for i := range k {
		k[i] = int64(i)
		v[i] = int64(i*7919%2000003) - 1000001
		if i%997 == 0 {
			v[i] = pinnedExtremes[i/997%len(pinnedExtremes)]
		}
	}
	w, err := db.CreateTable("w", "k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(map[string][]int64{"k": k, "v": v}); err != nil {
		t.Fatal(err)
	}
	jk, jx := make([]int64, 300), make([]int64, 300)
	for i := range jk {
		jk[i] = int64(i * 37 % 400)
		jx[i] = int64(i*104729%1000) - 500
		if i%50 == 0 {
			jx[i] = pinnedExtremes[i/50%len(pinnedExtremes)]
		}
	}
	j, err := db.CreateTable("j", "k", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Insert(map[string][]int64{"k": jk, "x": jx}); err != nil {
		t.Fatal(err)
	}
	p, err := db.CreatePartitionedTable("p", "v", 100000, 4, "uniform", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pv := make([]int64, 10000)
	for i := range pv {
		pv[i] = int64(i * 104729 % 100000)
	}
	if err := p.Insert(pv); err != nil {
		t.Fatal(err)
	}
	return db
}

// pinnedQueries are the /query bodies TestQueryResponseBytesPinned
// holds to a CRC-64 each, covering every result producer: unordered
// selects (one and two columns, with and without LIMIT, across
// chunks), a partitioned select, a clustered ascending ORDER BY, flat
// ORDER BY either way, joins, every aggregate (fractional AVG and
// empty-set NULLs included) and LIMIT 0.
var pinnedQueries = []struct {
	sql string
	crc uint64
}{
	{"SELECT v FROM w", 0x18581bcd299fc7be},
	{"SELECT k, v FROM w", 0x9110d3ddec3728b2},
	{"SELECT v FROM w LIMIT 5000", 0x456d7786d5946c7b},
	{"SELECT k, v FROM w WHERE k >= 100 LIMIT 9000", 0x9e154135aca10e5a},
	{"SELECT v, k FROM w WHERE v < 0", 0x2d84f9af5973a169},
	{"SELECT * FROM w WHERE k < 50", 0x9119771e8fce0e1b},
	{"SELECT v FROM p WHERE v >= 1000 AND v < 90000", 0x528dff90e126ef50},
	{"SELECT v FROM p ORDER BY v", 0x9755676d993a313},
	{"SELECT v FROM p WHERE v < 30000 ORDER BY v LIMIT 100", 0x64c6e93554055a79},
	{"SELECT k, v FROM w ORDER BY v LIMIT 20", 0x317ef3e83b415dfc},
	{"SELECT k, v FROM w ORDER BY v DESC LIMIT 20", 0x416bd14295a5a7f4},
	{"SELECT v FROM w WHERE k < 5000 ORDER BY v DESC", 0x6fe66076857f635b},
	{"SELECT w.k, w.v, j.x FROM w JOIN j ON w.k = j.k", 0xdfbcc7a637bf2734},
	{"SELECT j.x, w.v FROM w JOIN j ON w.k = j.k ORDER BY j.x DESC LIMIT 7", 0x13e315356fe452f},
	{"SELECT COUNT(*) FROM w", 0x58ee3206ae2b99dc},
	{"SELECT SUM(v) FROM w", 0xd289612f7aae8675},
	{"SELECT SUM(k) FROM w", 0x339da7efeb3ee097},
	{"SELECT MIN(v) FROM w", 0x22ac7682c345d9b4},
	{"SELECT MAX(v) FROM w", 0x571d505e539a7d57},
	{"SELECT AVG(v) FROM w", 0xcda39e91f6e46c87},
	{"SELECT AVG(k) FROM w WHERE k < 10", 0x5be46cd728f22ac8},
	{"SELECT AVG(k) FROM w WHERE k >= 7 AND k < 10", 0x7d6205060b4a1b0e},
	{"SELECT COUNT(*) FROM w WHERE k < 0", 0xec8a23916b327480},
	{"SELECT SUM(k) FROM w WHERE k < 0", 0x284b1d0aa69dae5},
	{"SELECT MIN(k) FROM w WHERE k < 0", 0xfd440c1b453013bb},
	{"SELECT MAX(k) FROM w WHERE k < 0", 0xec30e055b06d5be1},
	{"SELECT AVG(k) FROM w WHERE k < 0", 0x3e16e61041f8a801},
	{"SELECT SUM(v) FROM p WHERE v < 50000", 0xef5e9517cf0e9a3f},
	{"SELECT k FROM w LIMIT 0", 0xaabb1f4b4793a410},
	{"SELECT COUNT(*) FROM w LIMIT 0", 0x3200e1c10c53949c},
}

// TestQueryResponseBytesPinned holds every /query body the handler
// writes for pinnedQueries to the CRC-64 recorded before result chunks
// went column-major and integer cells stopped taking a float round
// trip: both change how a row reaches the socket, never a byte of it.
// Each statement is served twice; a result small enough to cache must
// come back from the result cache the second time, byte for byte.
func TestQueryResponseBytesPinned(t *testing.T) {
	srv := New(pinnedDB(t))
	tab := crc64.MakeTable(crc64.ECMA)
	for _, q := range pinnedQueries {
		var bodies [2][]byte
		for pass := range bodies {
			body, _ := json.Marshal(map[string]string{"sql": q.sql})
			fc := newFlushCounter()
			srv.ServeHTTP(fc, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if fc.status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", q.sql, fc.status, fc.body.String())
			}
			var out struct {
				Rows  []json.RawMessage `json:"rows"`
				Error string            `json:"error"`
			}
			if err := json.Unmarshal(fc.body.Bytes(), &out); err != nil || out.Error != "" {
				t.Fatalf("%s: body does not parse cleanly (%v, %q)", q.sql, err, out.Error)
			}
			wantHit := pass == 1 && len(out.Rows) <= sql.MaxCachedResultRows
			if hit := fc.header.Get("X-Amnesia-Cache") == "hit"; hit != wantHit {
				t.Fatalf("%s: pass %d cache hit = %v, want %v", q.sql, pass, hit, wantHit)
			}
			bodies[pass] = fc.body.Bytes()
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s: second answer differs from the first", q.sql)
		}
		if got := crc64.Checksum(bodies[0], tab); got != q.crc {
			t.Errorf("%s: body CRC-64 = %#x, pinned %#x (%d bytes)", q.sql, got, q.crc, len(bodies[0]))
		}
	}
}

// TestPinnedCatalogCarriesExtremes guards the catalog itself: every
// extreme must reach a response, or the pin would not cover the cells
// beyond 2^53.
func TestPinnedCatalogCarriesExtremes(t *testing.T) {
	srv := New(pinnedDB(t))
	body, _ := json.Marshal(map[string]string{"sql": "SELECT v FROM w"})
	fc := newFlushCounter()
	srv.ServeHTTP(fc, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	for _, v := range pinnedExtremes {
		cell := "[" + string(appendJSONFloat(nil, float64(v))) + "]"
		if !bytes.Contains(fc.body.Bytes(), []byte(cell)) {
			t.Fatalf("extreme %d (%s) never reaches the response", v, cell)
		}
	}
}

// discardWriter is a flushable http.ResponseWriter that keeps nothing,
// so an allocation count sees the handler's work alone.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) Flush()                      {}

// TestStreamedSelectAllocs drains a two-column unordered select of
// allocRows rows through the handler and bounds its allocations by the
// number of stream chunks: the chunk's column arrays are reused from
// one chunk to the next and cells are encoded straight from them, so
// no allocation may scale with rows.
func TestStreamedSelectAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("drains 100k+ rows per run")
	}
	const allocRows = 25 * sql.StreamChunkRows
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	t.Cleanup(func() { db.Close() })
	a, b := make([]int64, allocRows), make([]int64, allocRows)
	for i := range a {
		a[i], b[i] = int64(i), int64(allocRows-i)
	}
	tab, err := db.CreateTable("big", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(map[string][]int64{"a": a, "b": b}); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	body := []byte(`{"sql":"SELECT a, b FROM big"}`)
	w := &discardWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(5, func() {
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	})
	// A query's fixed cost (request, plan, quota, pipeline start-up) is
	// about 90 allocations and each further chunk about 5 (morsel
	// hand-offs; more under the race detector, whose sync.Pool drops
	// puts). The float row form took about 37 a chunk: one per
	// growslice of the row headers, and the cells and gather buffers
	// of every span.
	const fixed, perChunk = 128, 10
	chunks := allocRows / sql.StreamChunkRows
	t.Logf("%d rows in %d chunks: %.0f allocs per query", allocRows, chunks, allocs)
	if limit := float64(fixed + perChunk*chunks); allocs > limit {
		t.Fatalf("%d rows in %d chunks took %.0f allocs per query, want at most %.0f", allocRows, chunks, allocs, limit)
	}
}
