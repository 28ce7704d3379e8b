package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"amnesiadb/internal/table"
)

// buildCatalog assembles a namespace with the awkward cases: a flat
// table carrying forgotten tuples and nonzero access counts (in-flight
// decay state), a multi-batch table, and a partition set with adapted
// per-shard budgets and a forgotten tuple inside one shard.
func buildCatalog(t *testing.T) *Catalog {
	t.Helper()
	ev := table.New("events", "ts", "v")
	if _, err := ev.AppendBatch(map[string][]int64{"ts": {1, 2, 3}, "v": {10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.AppendBatch(map[string][]int64{"ts": {4, 5}, "v": {40, 50}}); err != nil {
		t.Fatal(err)
	}
	ev.Forget(1)
	ev.Forget(3)
	ev.Touch(0)
	ev.Touch(0)
	ev.Touch(4)

	s0 := table.New("metrics/p0", "m")
	if _, err := s0.AppendSingleColumn([]int64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	s0.Forget(2)
	s1 := table.New("metrics/p1", "m")
	if _, err := s1.AppendSingleColumn([]int64{600}); err != nil {
		t.Fatal(err)
	}

	return &Catalog{
		Tables: []TableEntry{{
			Table:  ev,
			Policy: Policy{Strategy: "lru", Budget: 4, Column: "v", MaxAgeBatches: 9},
		}},
		Parts: []PartEntry{{
			Name: "metrics", Column: "m", Strategy: "fifo", Domain: 1000,
			Shards: []ShardEntry{
				{Lo: 0, Hi: 500, Budget: 70, Table: s0},
				{Lo: 500, Hi: 1000, Budget: 30, Table: s1},
			},
		}},
	}
}

func sameTable(t *testing.T, got, want *table.Table) {
	t.Helper()
	if got.Name() != want.Name() {
		t.Fatalf("name %q != %q", got.Name(), want.Name())
	}
	if got.Len() != want.Len() || got.Batches() != want.Batches() {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", want.Name(), got.Len(), got.Batches(), want.Len(), want.Batches())
	}
	for _, col := range want.Columns() {
		g, w := got.MustColumn(col).Values(), want.MustColumn(col).Values()
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s.%s[%d] = %d, want %d", want.Name(), col, i, g[i], w[i])
			}
		}
	}
	for i := 0; i < want.Len(); i++ {
		if got.IsActive(i) != want.IsActive(i) {
			t.Fatalf("%s: active bit %d diverged", want.Name(), i)
		}
		if got.InsertBatch(i) != want.InsertBatch(i) {
			t.Fatalf("%s: batch id %d diverged", want.Name(), i)
		}
		if got.AccessCount(i) != want.AccessCount(i) {
			t.Fatalf("%s: access count %d diverged", want.Name(), i)
		}
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	want := buildCatalog(t)
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCatalog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != 1 || len(got.Parts) != 1 {
		t.Fatalf("catalog shape: %d tables, %d parts", len(got.Tables), len(got.Parts))
	}
	sameTable(t, got.Tables[0].Table, want.Tables[0].Table)
	if got.Tables[0].Policy != want.Tables[0].Policy {
		t.Fatalf("policy diverged: %+v != %+v", got.Tables[0].Policy, want.Tables[0].Policy)
	}
	gp, wp := got.Parts[0], want.Parts[0]
	if gp.Name != wp.Name || gp.Column != wp.Column || gp.Strategy != wp.Strategy || gp.Domain != wp.Domain {
		t.Fatalf("part header diverged: %+v", gp)
	}
	if len(gp.Shards) != len(wp.Shards) {
		t.Fatalf("shard count %d != %d", len(gp.Shards), len(wp.Shards))
	}
	for i := range wp.Shards {
		if gp.Shards[i].Lo != wp.Shards[i].Lo || gp.Shards[i].Hi != wp.Shards[i].Hi || gp.Shards[i].Budget != wp.Shards[i].Budget {
			t.Fatalf("shard %d bounds/budget diverged: %+v", i, gp.Shards[i])
		}
		sameTable(t, gp.Shards[i].Table, wp.Shards[i].Table)
	}
}

func TestCatalogCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, buildCatalog(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a body byte well past the header: the section CRC must trip.
	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0x01
	if _, err := ReadCatalog(bytes.NewReader(flip)); !errors.Is(err, ErrCatalogCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCatalogCorrupt", err)
	}

	// Truncation at any point is corruption (snapshots are atomic files,
	// unlike the WAL there is no clean-crash-boundary reading).
	for _, cut := range []int{0, 5, 24, len(raw) / 3, len(raw) - 1} {
		if _, err := ReadCatalog(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrCatalogCorrupt) {
			t.Fatalf("cut %d: got %v, want ErrCatalogCorrupt", cut, err)
		}
	}

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := ReadCatalog(bytes.NewReader(bad)); !errors.Is(err, ErrCatalogCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCatalogCorrupt", err)
	}
}

// tableCatalog returns catalog bytes holding one table section whose
// table record encodes s as it is, however malformed.
func tableCatalog(t *testing.T, s table.State) []byte {
	t.Helper()
	var body, rec, file bytes.Buffer
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(writeString(&body, "fifo"))
	check(writeString(&body, "a"))
	check(binary.Write(&body, binary.LittleEndian, [2]uint64{10, 0}))
	check(writeTable(&rec, s))
	check(writeBytes(&body, rec.Bytes()))
	check(binary.Write(&file, binary.LittleEndian, [3]uint64{catalogMagic, catalogVersion, 1}))
	check(writeSection(&file, sectionTable, body.Bytes()))
	return file.Bytes()
}

// TestSnapshotRejectsCorruptTableSections: a table section that passes
// its CRC but holds a state no history could produce is reported as
// ErrCatalogCorrupt, never restored and never a panic.
func TestSnapshotRejectsCorruptTableSections(t *testing.T) {
	good := buildCatalog(t).Tables[0].Table
	if _, err := ReadCatalog(bytes.NewReader(tableCatalog(t, good.State()))); err != nil {
		t.Fatalf("intact section: %v", err)
	}
	for name, corrupt := range map[string]func(s *table.State){
		"batch ids out of order":   func(s *table.State) { s.Batch[0], s.Batch[4] = 1, 0 },
		"batch id at the count":    func(s *table.State) { s.Batch[4] = int64(s.Batches) },
		"negative batch id":        func(s *table.State) { s.Batch[0] = -1 },
		"negative access count":    func(s *table.State) { s.Access[2] = -1 },
		"access count past uint32": func(s *table.State) { s.Access[2] = 1 << 32 },
		"short active bitmap":      func(s *table.State) { s.Active = nil },
		"short column":             func(s *table.State) { s.Values[1] = s.Values[1][:4] },
		"long column":              func(s *table.State) { s.Values[0] = append(s.Values[0][:5:5], 6) },
		"no columns":               func(s *table.State) { s.Columns, s.Values = nil, nil },
		"duplicate column":         func(s *table.State) { s.Columns = []string{"v", "v"} },
	} {
		s := good.State()
		s.Batch, s.Access = slices.Clone(s.Batch), slices.Clone(s.Access)
		corrupt(&s)
		if _, err := ReadCatalog(bytes.NewReader(tableCatalog(t, s))); !errors.Is(err, ErrCatalogCorrupt) {
			t.Errorf("%s: got %v, want ErrCatalogCorrupt", name, err)
		}
	}
}
