package sql

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestNormalizeSQL(t *testing.T) {
	a := NormalizeSQL("  SELECT a FROM t\n WHERE a < 5  ")
	b := NormalizeSQL("SELECT a FROM t WHERE a < 5")
	if a != b {
		t.Fatalf("normalization differs: %q vs %q", a, b)
	}
	if n := testing.AllocsPerRun(100, func() { NormalizeSQL(b) }); n != 0 {
		t.Fatalf("a canonical statement allocates %v times", n)
	}
}

// FuzzNormalizeSQL holds NormalizeSQL's canonical fast path to the
// definition it short-cuts: for every input the result is
// strings.Join(strings.Fields(q), " "). The seeds carry the spaces only
// strings.Fields knows about — U+0085, U+00A0, \v and \f — which the
// fast path must refuse.
func FuzzNormalizeSQL(f *testing.F) {
	for _, seed := range []string{
		"SELECT a FROM t", "", " ", "a", " a", "a ", "a  b", "a\tb", "a\nb", "a\rb",
		"a\vb", "a\fb", "a\u0085b", "a b", "a b", "café", "\xff", "a\x00b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if got, want := NormalizeSQL(q), strings.Join(strings.Fields(q), " "); got != want {
			t.Fatalf("NormalizeSQL(%q) = %q, want %q", q, got, want)
		}
	})
}

// TestPlanCacheReuse pins that a hot statement parses once and the
// cached plan executes identically.
func TestPlanCacheReuse(t *testing.T) {
	c := NewPlanCache(4)
	q1, err := c.Parse("SELECT a FROM t WHERE a < 5")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Parse("SELECT a FROM t WHERE a < 5")
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("second Parse did not return the cached plan")
	}
	hits, misses := c.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	if _, err := c.Parse("SELEKT nonsense"); err == nil {
		t.Fatal("bad statement parsed")
	}
	if c.Len() != 1 {
		t.Fatalf("error cached: len=%d", c.Len())
	}
}

// TestPlanCacheEviction pins the LRU bound.
func TestPlanCacheEviction(t *testing.T) {
	c := NewPlanCache(2)
	stmts := []string{
		"SELECT a FROM t WHERE a < 1",
		"SELECT a FROM t WHERE a < 2",
		"SELECT a FROM t WHERE a < 3",
	}
	for _, q := range stmts {
		if _, err := c.Parse(q); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	// The first statement was evicted: re-parsing it is a miss.
	_, missesBefore := c.Counters()
	if _, err := c.Parse(stmts[0]); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Counters(); misses != missesBefore+1 {
		t.Fatal("evicted statement did not miss")
	}
}

// TestResultCacheEpochInvalidation pins the tentpole invalidation
// rule: an entry is served only at the signature it was stored under,
// and a lookup at any other signature evicts it.
func TestResultCacheEpochInvalidation(t *testing.T) {
	c := NewResultCache(4)
	res := &CachedResult{Columns: []string{"a"}, Ints: []bool{true}, Rows: [][]float64{{1}, {2}}}
	c.Put("q", "t:1;", res)
	if got, ok := c.Get("q", "t:1;"); !ok || got != res {
		t.Fatal("fresh entry not served")
	}
	if _, ok := c.Get("q", "t:2;"); ok {
		t.Fatal("stale entry served after epoch bump")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted: len=%d", c.Len())
	}
	if _, ok := c.Get("q", "t:1;"); ok {
		t.Fatal("evicted entry served")
	}
}

// TestResultCacheRowCap pins that oversized results are not cached.
func TestResultCacheRowCap(t *testing.T) {
	c := NewResultCache(4)
	big := &CachedResult{Rows: make([][]float64, MaxCachedResultRows+1)}
	c.Put("big", "s", big)
	if c.Len() != 0 {
		t.Fatal("oversized result cached")
	}
}

// TestCachedStreamCopies pins that a cache hit's rows are copies: a
// consumer scribbling on the row adapter's rows must not corrupt later
// hits.
func TestCachedStreamCopies(t *testing.T) {
	res := &CachedResult{Columns: []string{"a"}, Ints: []bool{true}, Rows: [][]float64{{7}}}
	st := NewCachedStream(res)
	rows, err := st.Next()
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	rows[0][0] = 99
	st2 := NewCachedStream(res)
	rows2, _ := st2.Next()
	if !reflect.DeepEqual(rows2, [][]float64{{7}}) {
		t.Fatalf("cache corrupted by consumer mutation: %v", rows2)
	}
	if !st2.Detached {
		t.Fatal("cached stream not detached")
	}
}

// TestCachedStreamReplaysSharedChunk pins that a hit costs no copy: the
// stream hands out the cached chunk itself, and its row adapter builds
// rows of the chunk's cells with integers and NULLs intact.
func TestCachedStreamReplaysSharedChunk(t *testing.T) {
	c := &Chunk{Len: 2, Cols: []Col{{Ints: []int64{1 << 40, -3}}, {Floats: []float64{0.5, math.NaN()}}}}
	res := &CachedResult{Columns: []string{"a", "AVG(b)"}, Ints: []bool{true, false}, Chunk: c}
	got, err := NewCachedStream(res).NextChunk()
	if err != nil || got != c {
		t.Fatalf("hit chunk = %p (err %v), want the cached %p", got, err, c)
	}
	rows, err := NewCachedStream(res).Next()
	if err != nil || len(rows) != 2 || rows[0][0] != 1<<40 || rows[0][1] != 0.5 || rows[1][0] != -3 || !math.IsNaN(rows[1][1]) {
		t.Fatalf("rows = %v (err %v)", rows, err)
	}
}
