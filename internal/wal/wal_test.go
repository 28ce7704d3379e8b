package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"amnesiadb/internal/table"
)

// memCatalog is a minimal Applier over real tables, enough to verify
// that encode → replay reproduces state and survives abuse.
type memCatalog struct {
	tables map[string]*table.Table
	parts  map[string][]*table.Table // shard tables
	budget map[string][]int
	policy map[string]PolicySpec
}

func newMemCatalog() *memCatalog {
	return &memCatalog{
		tables: map[string]*table.Table{},
		parts:  map[string][]*table.Table{},
		budget: map[string][]int{},
		policy: map[string]PolicySpec{},
	}
}

func (c *memCatalog) CreateTable(name string, columns []string) error {
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("table %q exists", name)
	}
	if _, dup := c.parts[name]; dup {
		return fmt.Errorf("table %q exists", name)
	}
	c.tables[name] = table.New(name, columns...)
	return nil
}

func (c *memCatalog) CreatePartitioned(name, column string, domain int64, parts int, strategy string, totalBudget int) error {
	if parts <= 0 || parts > 1<<16 {
		return fmt.Errorf("bad part count %d", parts)
	}
	if _, dup := c.parts[name]; dup {
		return fmt.Errorf("table %q exists", name)
	}
	shards := make([]*table.Table, parts)
	budgets := make([]int, parts)
	for i := range shards {
		shards[i] = table.New(fmt.Sprintf("%s/p%d", name, i), column)
		budgets[i] = totalBudget / parts
	}
	c.parts[name] = shards
	c.budget[name] = budgets
	return nil
}

func (c *memCatalog) Drop(name string) error {
	delete(c.tables, name)
	delete(c.parts, name)
	delete(c.budget, name)
	return nil
}

func (c *memCatalog) Insert(name string, vals map[string][]int64) error {
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("unknown table %q", name)
	}
	_, err := t.AppendBatch(vals)
	return err
}

func (c *memCatalog) positions(name string, ps []int, set bool) error {
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("unknown table %q", name)
	}
	for _, p := range ps {
		if p < 0 || p >= t.Len() {
			return fmt.Errorf("position %d outside table of %d tuples", p, t.Len())
		}
		if set {
			t.Remember(p)
		} else {
			t.Forget(p)
		}
	}
	return nil
}

func (c *memCatalog) Forget(name string, ps []int) error   { return c.positions(name, ps, false) }
func (c *memCatalog) Remember(name string, ps []int) error { return c.positions(name, ps, true) }

func (c *memCatalog) Vacuum(name string) error {
	t, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("unknown table %q", name)
	}
	t.Vacuum()
	return nil
}

func (c *memCatalog) PartInsert(name string, shards []ShardMutation) error {
	set, ok := c.parts[name]
	if !ok {
		return fmt.Errorf("unknown partitioned table %q", name)
	}
	for _, s := range shards {
		if s.Shard < 0 || s.Shard >= len(set) {
			return fmt.Errorf("shard %d outside set of %d", s.Shard, len(set))
		}
		t := set[s.Shard]
		if len(s.Values) > 0 {
			if _, err := t.AppendSingleColumn(s.Values); err != nil {
				return err
			}
		}
		for _, p := range s.Forgotten {
			if p < 0 || p >= t.Len() {
				return fmt.Errorf("position %d outside shard of %d", p, t.Len())
			}
			t.Forget(p)
		}
	}
	return nil
}

func (c *memCatalog) PartAdapt(name string, shards []ShardAdapt) error {
	set, ok := c.parts[name]
	if !ok {
		return fmt.Errorf("unknown partitioned table %q", name)
	}
	for _, s := range shards {
		if s.Shard < 0 || s.Shard >= len(set) {
			return fmt.Errorf("shard %d outside set of %d", s.Shard, len(set))
		}
		c.budget[name][s.Shard] = s.Budget
		for _, p := range s.Forgotten {
			if p < 0 || p >= set[s.Shard].Len() {
				return fmt.Errorf("position %d outside shard", p)
			}
			set[s.Shard].Forget(p)
		}
	}
	return nil
}

func (c *memCatalog) SetPolicy(name string, p PolicySpec) error {
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("unknown table %q", name)
	}
	c.policy[name] = p
	return nil
}

// sampleLog builds one valid log exercising every record kind.
func sampleLog(t testing.TB) []byte {
	t.Helper()
	var log []byte
	log = AppendHeader(log)
	log = append(log, RecordCreate("events", []string{"ts", "v"})...)
	ins, err := RecordInsert("events", []string{"ts", "v"}, map[string][]int64{
		"ts": {1, 2, 3, 4}, "v": {10, 20, 30, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, ins...)
	log = append(log, RecordForget("events", []int{0, 2})...)
	log = append(log, RecordRemember("events", []int{2})...)
	log = append(log, RecordPolicy("events", PolicySpec{Strategy: "fifo", Budget: 3, Column: "v"})...)
	log = append(log, RecordCreatePart("metrics", "m", 1000, 4, "uniform", 100)...)
	log = append(log, RecordPartInsert("metrics", []ShardMutation{
		{Shard: 0, Values: []int64{5, 6}},
		{Shard: 3, Values: []int64{900}},
	})...)
	log = append(log, RecordPartAdapt("metrics", []ShardAdapt{
		{Shard: 0, Budget: 70},
		{Shard: 3, Budget: 10, Forgotten: []int{0}},
	})...)
	log = append(log, RecordVacuum("events")...)
	log = append(log, RecordCreate("tmp", []string{"x"})...)
	log = append(log, RecordDrop("tmp")...)
	return log
}

func TestReplayRoundTrip(t *testing.T) {
	log := sampleLog(t)
	cat := newMemCatalog()
	if err := Replay(bytes.NewReader(log), cat); err != nil {
		t.Fatalf("replay: %v", err)
	}
	ev := cat.tables["events"]
	if ev == nil {
		t.Fatal("events table missing after replay")
	}
	// 4 inserted, positions 0 and 2 forgotten, 2 remembered, then
	// vacuum removed position 0 only.
	if got := ev.Len(); got != 3 {
		t.Fatalf("events has %d tuples after vacuum, want 3", got)
	}
	if got := ev.ActiveCount(); got != 3 {
		t.Fatalf("events has %d active, want 3", got)
	}
	if _, ok := cat.tables["tmp"]; ok {
		t.Fatal("dropped table survived replay")
	}
	if got := cat.policy["events"]; got.Strategy != "fifo" || got.Budget != 3 {
		t.Fatalf("policy not replayed: %+v", got)
	}
	if got := cat.budget["metrics"]; got[0] != 70 || got[3] != 10 {
		t.Fatalf("adapted budgets not replayed: %v", got)
	}
	if got := cat.parts["metrics"][0].Len(); got != 2 {
		t.Fatalf("shard 0 has %d tuples, want 2", got)
	}
	if got := cat.parts["metrics"][3].ActiveCount(); got != 0 {
		t.Fatalf("shard 3 has %d active, want 0 (adapt forgot its tuple)", got)
	}
}

func TestReplayTruncatedTail(t *testing.T) {
	log := sampleLog(t)
	// Every prefix that cuts into a record must replay cleanly up to the
	// cut and report ErrTruncated — the crash boundary contract. Cuts
	// landing exactly on a record boundary replay clean.
	for cut := 0; cut < len(log); cut++ {
		cat := newMemCatalog()
		err := Replay(bytes.NewReader(log[:cut]), cat)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestReplayCorruptRecord(t *testing.T) {
	log := sampleLog(t)
	// Flip one payload byte past the header: the CRC must catch it.
	mut := append([]byte(nil), log...)
	mut[HeaderSize+10] ^= 0xff
	err := Replay(bytes.NewReader(mut), newMemCatalog())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestReplayBadHeader(t *testing.T) {
	if err := Replay(bytes.NewReader(nil), newMemCatalog()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty stream: got %v, want ErrTruncated", err)
	}
	bad := AppendHeader(nil)
	bad[0] ^= 1
	if err := Replay(bytes.NewReader(bad), newMemCatalog()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
	vers := AppendHeader(nil)
	vers[4] = 99
	if err := Replay(bytes.NewReader(vers), newMemCatalog()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version: got %v, want ErrCorrupt", err)
	}
}

func TestReplayApplierMismatchIsCorrupt(t *testing.T) {
	// A CRC-valid record that contradicts the catalog (forget on an
	// unknown table) is corruption, not a panic.
	var log []byte
	log = AppendHeader(log)
	log = append(log, RecordForget("ghost", []int{0})...)
	err := Replay(bytes.NewReader(log), newMemCatalog())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestRecordInsertMissingColumn(t *testing.T) {
	if _, err := RecordInsert("t", []string{"a", "b"}, map[string][]int64{"a": {1}}); err == nil {
		t.Fatal("RecordInsert accepted a batch missing a schema column")
	}
}

func TestInsertEncodingIdentity(t *testing.T) {
	// Values survive the varint round trip exactly, including extremes.
	vals := map[string][]int64{"a": {0, -1, 1, 1 << 62, -(1 << 62)}}
	var log []byte
	log = AppendHeader(log)
	log = append(log, RecordCreate("t", []string{"a"})...)
	rec, err := RecordInsert("t", []string{"a"}, vals)
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, rec...)
	cat := newMemCatalog()
	if err := Replay(bytes.NewReader(log), cat); err != nil {
		t.Fatal(err)
	}
	got := cat.tables["t"].MustColumn("a").Values()
	if !reflect.DeepEqual(got, vals["a"]) {
		t.Fatalf("values corrupted: got %v want %v", got, vals["a"])
	}
}

// TestRecordInsertRoom: an insert record fills its allocation exactly,
// whatever its varint widths, and the room asked for stays spare for a
// forget record appended in place, byte-identical to one encoded alone.
func TestRecordInsertRoom(t *testing.T) {
	cols := []string{"a", "b"}
	vals := map[string][]int64{
		"a": {0, -1, 63, -64, 64, -65, 1 << 40, math.MinInt64, math.MaxInt64},
		"b": make([]int64, 9),
	}
	rec, err := RecordInsert("t", cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != cap(rec) {
		t.Fatalf("record of %d bytes in an allocation of %d", len(rec), cap(rec))
	}
	roomy, err := RecordInsertRoom("t", cols, vals, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(roomy, rec) || cap(roomy) != len(rec)+32 {
		t.Fatalf("with room: %d bytes, cap %d; want the %d-byte record, cap %d", len(roomy), cap(roomy), len(rec), len(rec)+32)
	}
	ps := []int{3, 9, 200, 201}
	both := AppendForget(roomy, "t", ps)
	if &both[0] != &roomy[0] {
		t.Fatal("the forget record did not fit the room")
	}
	if want := append(append([]byte(nil), rec...), RecordForget("t", ps)...); !bytes.Equal(both, want) {
		t.Fatalf("appended in place %x, encoded alone %x", both, want)
	}
}
