package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"amnesiadb"
)

func newServer(t *testing.T) (*httptest.Server, *amnesiadb.DB) {
	t.Helper()
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	return ts, db
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestInsertCreatesAndFills(t *testing.T) {
	ts, db := newServer(t)
	resp, out := post(t, ts.URL+"/insert", map[string]any{
		"table":   "readings",
		"create":  []string{"value"},
		"columns": map[string][]int64{"value": {1, 2, 3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["Tuples"].(float64) != 3 {
		t.Fatalf("stats = %v", out)
	}
	if _, ok := db.Table("readings"); !ok {
		t.Fatal("table not created")
	}
}

func TestInsertUnknownTableWithoutCreate(t *testing.T) {
	ts, _ := newServer(t)
	resp, _ := post(t, ts.URL+"/insert", map[string]any{
		"table":   "nope",
		"columns": map[string][]int64{"v": {1}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := newServer(t)
	post(t, ts.URL+"/insert", map[string]any{
		"table":   "t",
		"create":  []string{"a"},
		"columns": map[string][]int64{"a": {10, 20, 30}},
	})
	resp, out := post(t, ts.URL+"/query", map[string]any{"sql": "SELECT AVG(a) FROM t"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 || rows[0].([]any)[0].(float64) != 20 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestQueryBadSQL(t *testing.T) {
	ts, _ := newServer(t)
	resp, out := post(t, ts.URL+"/query", map[string]any{"sql": "DROP TABLE x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out["error"] == "" {
		t.Fatal("no error body")
	}
}

func TestPolicyEndpointEnforces(t *testing.T) {
	ts, _ := newServer(t)
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	post(t, ts.URL+"/insert", map[string]any{
		"table":   "t",
		"create":  []string{"a"},
		"columns": map[string][]int64{"a": vals},
	})
	resp, out := post(t, ts.URL+"/policy", map[string]any{
		"table": "t", "strategy": "fifo", "budget": 10,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["Active"].(float64) != 10 {
		t.Fatalf("active after policy = %v", out["Active"])
	}
}

func TestPolicyUnknownStrategy(t *testing.T) {
	ts, _ := newServer(t)
	post(t, ts.URL+"/insert", map[string]any{
		"table": "t", "create": []string{"a"},
		"columns": map[string][]int64{"a": {1}},
	})
	resp, _ := post(t, ts.URL+"/policy", map[string]any{
		"table": "t", "strategy": "bogus", "budget": 10,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestStatsAndTables(t *testing.T) {
	ts, _ := newServer(t)
	post(t, ts.URL+"/insert", map[string]any{
		"table": "x", "create": []string{"a"},
		"columns": map[string][]int64{"a": {1, 2}},
	})
	resp, body := get(t, ts.URL+"/stats?table=x")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["Tuples"].(float64) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	resp, body = get(t, ts.URL+"/tables")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tables status %d", resp.StatusCode)
	}
	var rels []amnesiadb.RelationInfo
	if err := json.Unmarshal(body, &rels); err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0].Name != "x" || rels[0].Kind != "table" || rels[0].Shards != 0 {
		t.Fatalf("tables = %+v", rels)
	}
	resp, _ = get(t, ts.URL+"/stats?table=missing")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-table status %d", resp.StatusCode)
	}
}

// TestStatsReportIndexBytes checks /stats shows the memory of the
// value-order index a narrow query builds: none before, 4 bytes a row
// after.
func TestStatsReportIndexBytes(t *testing.T) {
	ts, _ := newServer(t)
	const n = 64 << 10
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	post(t, ts.URL+"/insert", map[string]any{
		"table": "x", "create": []string{"a"},
		"columns": map[string][]int64{"a": vals},
	})
	indexBytes := func() float64 {
		_, body := get(t, ts.URL+"/stats?table=x")
		var stats map[string]any
		if err := json.Unmarshal(body, &stats); err != nil {
			t.Fatal(err)
		}
		return stats["IndexBytes"].(float64)
	}
	if got := indexBytes(); got != 0 {
		t.Fatalf("IndexBytes = %v before any query", got)
	}
	post(t, ts.URL+"/query", map[string]any{"sql": "SELECT COUNT(*) FROM x WHERE a >= 100 AND a < 164"})
	if got := indexBytes(); got != 4*n {
		t.Fatalf("IndexBytes = %v after a narrow query, want %d", got, 4*n)
	}
}

func TestPrecisionEndpoint(t *testing.T) {
	ts, _ := newServer(t)
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	post(t, ts.URL+"/insert", map[string]any{
		"table": "t", "create": []string{"a"},
		"columns": map[string][]int64{"a": vals},
	})
	post(t, ts.URL+"/policy", map[string]any{"table": "t", "strategy": "uniform", "budget": 50})
	resp, body := get(t, ts.URL+"/precision?table=t&lo=0&hi=100")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out map[string]float64
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["precision"] != 0.5 || out["returned"] != 50 || out["missed"] != 50 {
		t.Fatalf("precision = %v", out)
	}
	resp, _ = get(t, ts.URL+"/precision?table=t&lo=x&hi=y")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-bounds status %d", resp.StatusCode)
	}
}

func TestQueryUnknownTableIs404(t *testing.T) {
	ts, _ := newServer(t)
	resp, out := post(t, ts.URL+"/query", map[string]any{"sql": "SELECT a FROM missing"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
}

func TestQueryUnknownColumnIs400(t *testing.T) {
	ts, _ := newServer(t)
	post(t, ts.URL+"/insert", map[string]any{
		"table": "t", "create": []string{"a"},
		"columns": map[string][]int64{"a": {1}},
	})
	resp, _ := post(t, ts.URL+"/query", map[string]any{"sql": "SELECT zz FROM t"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestQueryEmptyAggregateReturnsNull(t *testing.T) {
	// Regression: AVG over an empty qualifying set used to surface
	// engine.ErrNoRows as a 400; it must be a 200 with a JSON null.
	ts, _ := newServer(t)
	post(t, ts.URL+"/insert", map[string]any{
		"table": "t", "create": []string{"a"},
		"columns": map[string][]int64{"a": {1, 2, 3}},
	})
	resp, out := post(t, ts.URL+"/query", map[string]any{"sql": "SELECT AVG(a) FROM t WHERE a > 100"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 || rows[0].([]any)[0] != nil {
		t.Fatalf("rows = %v, want one null cell", rows)
	}
	ints := out["ints"].([]any)
	if len(ints) != 1 || ints[0].(bool) {
		t.Fatalf("ints = %v, want [false] for AVG", ints)
	}
	// COUNT stays 0, an exact int.
	resp, out = post(t, ts.URL+"/query", map[string]any{"sql": "SELECT COUNT(*) FROM t WHERE a > 100"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count status %d: %v", resp.StatusCode, out)
	}
	if out["rows"].([]any)[0].([]any)[0].(float64) != 0 {
		t.Fatalf("count rows = %v", out["rows"])
	}
	if !out["ints"].([]any)[0].(bool) {
		t.Fatalf("count ints = %v, want [true]", out["ints"])
	}
}

func TestQueryLimitZeroReturnsNoRows(t *testing.T) {
	ts, _ := newServer(t)
	post(t, ts.URL+"/insert", map[string]any{
		"table": "t", "create": []string{"a"},
		"columns": map[string][]int64{"a": {1, 2, 3}},
	})
	resp, out := post(t, ts.URL+"/query", map[string]any{"sql": "SELECT a FROM t LIMIT 0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if rows := out["rows"].([]any); len(rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(rows))
	}
}
