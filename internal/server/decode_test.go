package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"amnesiadb"
)

func TestDecodeInsert(t *testing.T) {
	accept := []struct {
		body string
		want insertRequest
	}{
		{`{}`, insertRequest{}},
		{" \t\r\n{ } \n", insertRequest{}},
		{`{"table":"t"}`, insertRequest{Table: "t"}},
		{`{"table":"t","create":["a","b"],"columns":{"a":[1,2],"b":[3,4]}}`,
			insertRequest{Table: "t", Create: []string{"a", "b"}, Columns: map[string][]int64{"a": {1, 2}, "b": {3, 4}}}},
		{`{ "columns" : { "a" : [ -1 , 0 , -0 , 9223372036854775807 , -9223372036854775808 ] } , "table" : "t" }`,
			insertRequest{Table: "t", Columns: map[string][]int64{"a": {-1, 0, 0, 9223372036854775807, -9223372036854775808}}}},
		{`{"create":[],"columns":{}}`, insertRequest{Columns: map[string][]int64{}}},
		{`{"columns":{"a":[]}}`, insertRequest{Columns: map[string][]int64{"a": nil}}},
		{`{"table":"café \"q\" 😀 é","columns":{"a":[7]}}`,
			insertRequest{Table: `café "q" 😀 é`, Columns: map[string][]int64{"a": {7}}}},
	}
	for _, c := range accept {
		got, err := decodeInsert([]byte(c.body))
		if err != nil {
			t.Errorf("decodeInsert(%s): %v", c.body, err)
			continue
		}
		if !sameInsert(got, c.want) {
			t.Errorf("decodeInsert(%s) = %+v, want %+v", c.body, got, c.want)
		}
	}

	reject := []struct{ body, why string }{
		{``, "unexpected end"},
		{`   `, "unexpected end"},
		{`null`, `want '{'`},
		{`[]`, `want '{'`},
		{`"t"`, `want '{'`},
		{`{"table":"t"`, "unexpected end"},
		{`{"table":"t",}`, `want '"'`},
		{`{"table" "t"}`, `want ':'`},
		{`{"table":"t"} x`, "after the request object"},
		{`{"table":"t"}{}`, "after the request object"},
		{`{"table":null}`, `want '"'`},
		{`{"table":7}`, `want '"'`},
		{`{"table":"a` + "\n" + `b"}`, "control character"},
		{`{"table":"\x"}`, "invalid character"},
		{`{"table":"t","table":"u"}`, `duplicate member "table"`},
		{`{"Table":"t"}`, `unknown member "Table"`},
		{`{"table":"t","rows":[1]}`, `unknown member "rows"`},
		{`{"create":null}`, `want '['`},
		{`{"create":["a",1]}`, `want '"'`},
		{`{"create":["a"`, "unexpected end"},
		{`{"columns":null}`, `want '{'`},
		{`{"columns":{"a":null}}`, `want '['`},
		{`{"columns":{"a":[1],"a":[2]}}`, `duplicate column "a"`},
		{`{"columns":{"a":[1,]}}`, "want an integer"},
		{`{"columns":{"a":[,1]}}`, "want an integer"},
		{`{"columns":{"a":[1 2]}}`, `want ','`},
		{`{"columns":{"a":[1`, "unexpected end"},
		{`{"columns":{"a":[1.0]}}`, "not a JSON integer"},
		{`{"columns":{"a":[1e3]}}`, "not a JSON integer"},
		{`{"columns":{"a":[1E3]}}`, "not a JSON integer"},
		{`{"columns":{"a":[01]}}`, "not a JSON integer"},
		{`{"columns":{"a":[-]}}`, "want an integer"},
		{`{"columns":{"a":[+1]}}`, "want an integer"},
		{`{"columns":{"a":["1"]}}`, "want an integer"},
		{`{"columns":{"a":[true]}}`, "want an integer"},
		{`{"columns":{"a":[9223372036854775808]}}`, "overflows int64"},
		{`{"columns":{"a":[-9223372036854775809]}}`, "overflows int64"},
		{`{"columns":{"a":[99999999999999999999999999]}}`, "overflows int64"},
	}
	for _, c := range reject {
		_, err := decodeInsert([]byte(c.body))
		if err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("decodeInsert(%s): error %v, want one containing %q", c.body, err, c.why)
		}
	}
}

// sameInsert compares two requests, taking an empty slice or map for a
// missing one: encoding/json allocates where decodeInsert leaves nil.
func sameInsert(a, b insertRequest) bool {
	return a.Table == b.Table && slices.Equal(a.Create, b.Create) &&
		maps.EqualFunc(a.Columns, b.Columns, func(x, y []int64) bool { return slices.Equal(x, y) })
}

// TestInsertBadBodyIs400 pins the wire shape of a rejected body, and
// that the body is read to its end across short reads.
func TestInsertBadBodyIs400(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	defer db.Close()
	srv := New(db)
	post := func(body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/insert", body))
		return rec.Code, strings.TrimSpace(rec.Body.String())
	}
	code, body := post(strings.NewReader(`{"table":"t","columns":{"a":[1.5]}}`))
	if want := `{"error":"bad request body: offset 29: number is not a JSON integer"}`; code != http.StatusBadRequest || body != want {
		t.Fatalf("got %d %s, want 400 %s", code, body, want)
	}
	big := insertJSON("t", []string{"a"}, 100_000)
	if code, body = post(iotest.OneByteReader(bytes.NewReader(big[:4096]))); code != http.StatusBadRequest || !strings.Contains(body, "unexpected end") {
		t.Fatalf("truncated body: got %d %s", code, body)
	}
	if code, body = post(iotest.HalfReader(bytes.NewReader(big))); code != http.StatusOK {
		t.Fatalf("large body: got %d %s", code, body)
	}
	if tb, _ := db.Table("t"); tb.Stats().Tuples != 100_000 {
		t.Fatalf("stored %d tuples, want 100000", tb.Stats().Tuples)
	}
}

// insertJSON renders an insert of n rows into the named columns.
func insertJSON(table string, cols []string, n int) []byte {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 7919 % (1 << 30)
	}
	req := insertRequest{Table: table, Create: cols, Columns: map[string][]int64{}}
	for _, c := range cols {
		req.Columns[c] = vals
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// stricterThanJSON reports whether body, which encoding/json accepted
// as a request with the given top-level members, has one of the
// properties the body decoders reject by design: a null, a duplicated
// member or column, or a member name that matches its field only
// case-insensitively.
func stricterThanJSON(body []byte, members ...string) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var keys []map[string]bool // one set per open object; nil for an array
	expectKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch v := tok.(type) {
		case nil:
			return true
		case json.Delim:
			switch v {
			case '{':
				keys = append(keys, map[string]bool{})
				expectKey = true
				continue
			case '[':
				keys = append(keys, nil)
			default:
				keys = keys[:len(keys)-1]
			}
		case string:
			if expectKey {
				top := keys[len(keys)-1]
				if top[v] || len(keys) == 1 && !slices.Contains(members, v) {
					return true
				}
				top[v] = true
				expectKey = false
				continue
			}
		}
		expectKey = len(keys) > 0 && keys[len(keys)-1] != nil
	}
}

// FuzzInsertDecode holds decodeInsert to encoding/json: whatever it
// accepts, encoding/json (told to refuse unknown members and trailing
// data) accepts with equal values; whatever encoding/json accepts, it
// accepts too, unless the body is one decodeInsert rejects by design.
func FuzzInsertDecode(f *testing.F) {
	for _, seed := range []string{
		`{"table":"t","create":["a","b"],"columns":{"a":[1,-2,3],"b":[4,5,6]}}`,
		`{ "columns" : { "v" : [ 9223372036854775807, -9223372036854775808, 0 ] }, "table" : "t" }`,
		`{"table":"café😀","columns":{}}`,
		`{"table":"t","columns":{"a":[1.0]}}`,
		`{"table":"t","columns":{"a":[1e2]}}`,
		`{"Table":"t","columns":{"a":null,"a":[1]},"x":1}`,
		`{"table":"t"} {"table":"u"}`,
		`{"table":"\xff","create":null}`,
		`null`, `[1]`, `{`, `{"table":"t",}`, `{"columns":{"a":[01]}}`, `{"columns":{"a":[-]}}`,
		`{"columns":{"a":[18446744073709551616]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeInsert(body)

		var want insertRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		jsonErr := dec.Decode(&want)
		if jsonErr == nil {
			if _, more := dec.Token(); more != io.EOF {
				jsonErr = fmt.Errorf("data after the top-level value")
			}
		}
		switch {
		case err == nil && jsonErr != nil:
			t.Fatalf("decodeInsert accepted %q, encoding/json: %v", body, jsonErr)
		case err == nil && !sameInsert(got, want):
			t.Fatalf("decodeInsert(%q) = %+v, encoding/json %+v", body, got, want)
		case err != nil && jsonErr == nil && !stricterThanJSON(body, "table", "create", "columns"):
			t.Fatalf("decodeInsert rejected %q (%v), encoding/json accepted it as %+v", body, err, want)
		}
	})
}

func TestDecodeQuery(t *testing.T) {
	accept := []struct{ body, want string }{
		{`{}`, ""},
		{`{"sql":"SELECT COUNT(*) FROM t"}`, "SELECT COUNT(*) FROM t"},
		{" \n{ \"sql\" : \"SELECT  a\\tFROM t\" } \r\n", "SELECT  a\tFROM t"},
		{`{"sql":"café \"q\" 😀"}`, `café "q" 😀`},
	}
	for _, c := range accept {
		got, err := decodeQuery([]byte(c.body))
		if err != nil || got.SQL != c.want {
			t.Errorf("decodeQuery(%s) = %q, %v; want %q", c.body, got.SQL, err, c.want)
		}
	}
	reject := []struct{ body, why string }{
		{``, "unexpected end"},
		{`null`, `want '{'`},
		{`"SELECT 1"`, `want '{'`},
		{`{"sql":"SELECT 1"`, "unexpected end"},
		{`{"sql":null}`, `want '"'`},
		{`{"sql":1}`, `want '"'`},
		{`{"sql":"a","sql":"b"}`, `duplicate member "sql"`},
		{`{"SQL":"SELECT 1"}`, `unknown member "SQL"`},
		{`{"sql":"SELECT 1","limit":1}`, `unknown member "limit"`},
		{`{"sql":"SELECT 1"} {}`, "after the request object"},
		{`{"sql":"a` + "\n" + `b"}`, "control character"},
		{`{"sql":"\q"}`, "invalid character"},
	}
	for _, c := range reject {
		_, err := decodeQuery([]byte(c.body))
		if err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("decodeQuery(%s): error %v, want one containing %q", c.body, err, c.why)
		}
	}
}

// TestDecodersCopyOut pins what lets readBody recycle the body buffer:
// nothing either decoder returns aliases the bytes it decoded.
func TestDecodersCopyOut(t *testing.T) {
	qBody := []byte(`{"sql":"SELECT a FROM t"}`)
	q, err := decodeQuery(qBody)
	if err != nil {
		t.Fatal(err)
	}
	insBody := []byte(`{"table":"t","create":["a","bé"],"columns":{"a":[1],"bé":[2]}}`)
	ins, err := decodeInsert(insBody)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{qBody, insBody} {
		for i := range b {
			b[i] = 'x'
		}
	}
	want := insertRequest{Table: "t", Create: []string{"a", "bé"}, Columns: map[string][]int64{"a": {1}, "bé": {2}}}
	if q.SQL != "SELECT a FROM t" || !sameInsert(ins, want) {
		t.Fatalf("after overwriting the bodies: query %q, insert %+v", q.SQL, ins)
	}
}

// TestQueryBadBodyIs400 pins that /query now rejects what encoding/json
// used to let through: a case-mismatched member and trailing data.
func TestQueryBadBodyIs400(t *testing.T) {
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	defer db.Close()
	srv := New(db)
	for body, want := range map[string]string{
		`{"SQL":"SELECT COUNT(*) FROM t"}`:    `{"error":"bad request body: unknown member \"SQL\""}`,
		`{"sql":"SELECT COUNT(*) FROM t"} {}`: `{"error":"bad request body: offset 33: unexpected '{' after the request object"}`,
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if got := strings.TrimSpace(rec.Body.String()); rec.Code != http.StatusBadRequest || got != want {
			t.Errorf("%s: got %d %s, want 400 %s", body, rec.Code, got, want)
		}
	}
}

// FuzzQueryDecode holds decodeQuery to encoding/json as FuzzInsertDecode
// holds decodeInsert: whatever it accepts, encoding/json (refusing
// unknown members and trailing data) accepts with the same SQL;
// whatever encoding/json accepts, it accepts too, unless the body is
// one decodeQuery rejects by design (stricterThanJSON).
func FuzzQueryDecode(f *testing.F) {
	for _, seed := range []string{
		`{"sql":"SELECT id, score FROM mem WHERE id >= 1 AND id < 65 ORDER BY score LIMIT 10"}`,
		` { "sql" : "SELECT\tCOUNT(*)\nFROM t" } `,
		`{"sql":"café \"q\" 😀"}`,
		`{"sql":"\xff"}`,
		`{"SQL":"x"}`, `{"Sql":"x","sql":"y"}`, `{"sql":"a","sql":"b"}`,
		`{"sql":null}`, `{"sql":"a"} x`, `{"sql":"a","table":"t"}`,
		`null`, `{}`, `{`, `{"sql":"a",}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeQuery(body)

		var want queryRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		jsonErr := dec.Decode(&want)
		if jsonErr == nil {
			if _, more := dec.Token(); more != io.EOF {
				jsonErr = fmt.Errorf("data after the top-level value")
			}
		}
		switch {
		case err == nil && jsonErr != nil:
			t.Fatalf("decodeQuery accepted %q, encoding/json: %v", body, jsonErr)
		case err == nil && got.SQL != want.SQL:
			t.Fatalf("decodeQuery(%q) = %q, encoding/json %q", body, got.SQL, want.SQL)
		case err != nil && jsonErr == nil && !stricterThanJSON(body, "sql"):
			t.Fatalf("decodeQuery rejected %q (%v), encoding/json accepted it as %+v", body, err, want)
		}
	})
}

// BenchmarkInsertDecode prices the decoder on the ingest workload's
// body, 4096 rows by two columns, against the encoding/json it replaced.
func BenchmarkInsertDecode(b *testing.B) {
	body := insertJSON("ev", []string{"ts", "val"}, 4096)
	b.Run("handrolled", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := readBody(bytes.NewReader(body), decodeInsert); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req insertRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
