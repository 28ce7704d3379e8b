// Package wal implements the catalog-wide write-ahead log for
// amnesiadb: length-prefixed, CRC-32-guarded records framed with a
// relation name and a record kind, covering every mutating operation of
// the whole namespace — flat-table inserts/forgets/remembers/vacuums,
// partition-set inserts and budget adaptations, policy changes, and the
// DDL that creates and drops relations. Replaying a log reproduces the
// catalog state bit-for-bit (including amnesia decisions, which are
// logged as plain forget records — the log captures *what* was
// forgotten, not why, so replay needs no strategy or seed).
//
// The stream starts with a versioned file header (magic "AMWL",
// format version), so segments from older layouts are rejected rather
// than misparsed. Snapshots (package snapshot) capture a moment; the
// WAL captures the journey — together they give point-in-time
// recovery: restore the last snapshot, replay the tail of the log.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
)

// Kind tags log records.
type Kind byte

const (
	// KindInsert appends one batch to a flat table.
	KindInsert Kind = iota + 1
	// KindForget marks tuple positions inactive.
	KindForget
	// KindRemember reactivates tuple positions (cold-storage recovery).
	KindRemember
	// KindVacuum physically compacts a relation.
	KindVacuum
	// KindCreate creates a flat table (DDL).
	KindCreate
	// KindCreatePart creates a partitioned table (DDL).
	KindCreatePart
	// KindDrop removes a relation from the catalog (DDL).
	KindDrop
	// KindPartInsert appends a routed batch to a partition set, with the
	// per-shard forgets its budget enforcement chose.
	KindPartInsert
	// KindPartAdapt rewrites a partition set's per-shard budgets, with
	// the per-shard forgets the re-enforcement chose.
	KindPartAdapt
	// KindPolicy installs (or clears) a flat table's amnesia policy.
	KindPolicy
	kindMax
)

// File header: magic + format version, so a segment from a different
// layout fails loudly instead of misparsing.
const (
	Magic   = 0x414d574c // "AMWL"
	Version = 2
)

// HeaderSize is the encoded file header length in bytes.
const HeaderSize = 8

// ErrTruncated reports a partial trailing record (or header); everything
// before it replayed fine. Callers treat it as a clean crash boundary.
var ErrTruncated = errors.New("wal: truncated trailing record")

// ErrCorrupt reports a record whose checksum failed, whose payload does
// not decode, or whose content contradicts the catalog it replays into.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrApply marks the subset of ErrCorrupt where the record itself was
// structurally intact (framing and checksum valid) but the applier
// rejected it — the log does not fit the catalog it is replayed into.
// Recovery must never treat such a record as a torn tail: it was fully
// written, so discarding it would discard acknowledged history.
var ErrApply = errors.New("wal: applier rejected record")

// ShardMutation is one shard's slice of a partition-set insert: the
// values routed to it and the positions its budget enforcement forgot.
type ShardMutation struct {
	Shard     int
	Values    []int64
	Forgotten []int
}

// ShardAdapt is one shard's slice of a partition-set Adapt: its new
// budget and the positions the re-enforcement forgot.
type ShardAdapt struct {
	Shard     int
	Budget    int
	Forgotten []int
}

// PolicySpec mirrors the facade's Policy for logging: strategy name,
// budget, value column and retention window.
type PolicySpec struct {
	Strategy      string
	Budget        int
	Column        string
	MaxAgeBatches int
}

// Applier receives decoded records during Replay. Implementations
// apply them to a live catalog; errors abort the replay (wrapped in
// ErrCorrupt — a log that does not fit the catalog is corrupt).
type Applier interface {
	CreateTable(name string, columns []string) error
	CreatePartitioned(name, column string, domain int64, parts int, strategy string, totalBudget int) error
	Drop(name string) error
	Insert(name string, vals map[string][]int64) error
	Forget(name string, positions []int) error
	Remember(name string, positions []int) error
	Vacuum(name string) error
	PartInsert(name string, shards []ShardMutation) error
	PartAdapt(name string, shards []ShardAdapt) error
	SetPolicy(name string, p PolicySpec) error
}

// AppendHeader appends the versioned file header to dst. Every segment
// starts with one.
func AppendHeader(dst []byte) []byte {
	var h [HeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:], Magic)
	binary.LittleEndian.PutUint32(h[4:], Version)
	return append(dst, h[:]...)
}

// A record is a head — kind byte and payload length — then the
// payload, then a CRC-32 over head and payload.
const (
	recordHead = 5
	recordCRC  = 4
)

// beginRecord appends a record head for kind to dst, the length left
// for endRecord to fill in, so the payload is encoded straight into dst.
func beginRecord(dst []byte, kind Kind) []byte {
	return append(dst, byte(kind), 0, 0, 0, 0)
}

// endRecord frames the record begun at dst[start:] in place: it sets the
// payload length and appends the CRC-32 over kind, length and payload.
func endRecord(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-recordHead))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendPositions(b []byte, positions []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(positions)))
	prev := 0
	for _, p := range positions {
		b = binary.AppendVarint(b, int64(p-prev)) // delta encoding
		prev = p
	}
	return b
}

func appendValues(b []byte, vs []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// stringLen is the length of appendString's encoding of s.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// RecordCreate encodes a flat-table CREATE.
func RecordCreate(name string, columns []string) []byte {
	b := appendString(beginRecord(nil, KindCreate), name)
	b = binary.AppendUvarint(b, uint64(len(columns)))
	for _, c := range columns {
		b = appendString(b, c)
	}
	return endRecord(b, 0)
}

// RecordCreatePart encodes a partitioned-table CREATE.
func RecordCreatePart(name, column string, domain int64, parts int, strategy string, totalBudget int) []byte {
	b := appendString(beginRecord(nil, KindCreatePart), name)
	b = appendString(b, column)
	b = binary.AppendVarint(b, domain)
	b = binary.AppendUvarint(b, uint64(parts))
	b = appendString(b, strategy)
	b = binary.AppendUvarint(b, uint64(totalBudget))
	return endRecord(b, 0)
}

// RecordDrop encodes a DROP of either relation kind.
func RecordDrop(name string) []byte {
	return endRecord(appendString(beginRecord(nil, KindDrop), name), 0)
}

// RecordInsert encodes one flat-table batch: per schema column (in
// schema order), the values appended.
func RecordInsert(name string, cols []string, vals map[string][]int64) ([]byte, error) {
	return RecordInsertRoom(name, cols, vals, 0)
}

// RecordInsertRoom is RecordInsert into one allocation of exactly the
// record's size plus room bytes of spare capacity, where the caller
// appends what must follow the record without a copy: the facade
// encodes an insert before taking the relation lock and appends its
// enforcement's forget record under it.
func RecordInsertRoom(name string, cols []string, vals map[string][]int64, room int) ([]byte, error) {
	n := recordHead + stringLen(name) + uvarintLen(uint64(len(cols))) + recordCRC
	for _, c := range cols {
		vs, ok := vals[c]
		if !ok {
			return nil, fmt.Errorf("wal: insert missing column %q", c)
		}
		n += stringLen(c) + uvarintLen(uint64(len(vs)))
		for _, v := range vs {
			n += uvarintLen(uint64(v<<1) ^ uint64(v>>63))
		}
	}
	b := appendString(beginRecord(make([]byte, 0, n+room), KindInsert), name)
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = appendString(b, c)
		b = appendValues(b, vals[c])
	}
	return endRecord(b, 0), nil
}

// RecordForget encodes tuple positions marked inactive.
func RecordForget(name string, positions []int) []byte {
	return appendPositionsRecord(nil, KindForget, name, positions)
}

// AppendForget appends RecordForget's record to dst.
func AppendForget(dst []byte, name string, positions []int) []byte {
	return appendPositionsRecord(dst, KindForget, name, positions)
}

// RecordRemember encodes tuple positions reactivated.
func RecordRemember(name string, positions []int) []byte {
	return appendPositionsRecord(nil, KindRemember, name, positions)
}

// appendPositionsRecord appends a record of kind naming a relation and
// tuple positions to dst.
func appendPositionsRecord(dst []byte, kind Kind, name string, positions []int) []byte {
	start := len(dst)
	return endRecord(appendPositions(appendString(beginRecord(dst, kind), name), positions), start)
}

// RecordVacuum encodes a physical compaction point.
func RecordVacuum(name string) []byte {
	return endRecord(appendString(beginRecord(nil, KindVacuum), name), 0)
}

// RecordPartInsert encodes a partition-set insert: per affected shard,
// the values routed to it and the forgets its budget enforcement chose.
func RecordPartInsert(name string, shards []ShardMutation) []byte {
	b := appendString(beginRecord(nil, KindPartInsert), name)
	b = binary.AppendUvarint(b, uint64(len(shards)))
	for _, s := range shards {
		b = binary.AppendUvarint(b, uint64(s.Shard))
		b = appendValues(b, s.Values)
		b = appendPositions(b, s.Forgotten)
	}
	return endRecord(b, 0)
}

// RecordPartAdapt encodes a partition-set Adapt: per shard, the new
// budget and the forgets the re-enforcement chose.
func RecordPartAdapt(name string, shards []ShardAdapt) []byte {
	b := appendString(beginRecord(nil, KindPartAdapt), name)
	b = binary.AppendUvarint(b, uint64(len(shards)))
	for _, s := range shards {
		b = binary.AppendUvarint(b, uint64(s.Shard))
		b = binary.AppendUvarint(b, uint64(s.Budget))
		b = appendPositions(b, s.Forgotten)
	}
	return endRecord(b, 0)
}

// RecordPolicy encodes a flat-table policy change.
func RecordPolicy(name string, p PolicySpec) []byte {
	b := appendString(beginRecord(nil, KindPolicy), name)
	b = appendString(b, p.Strategy)
	b = binary.AppendUvarint(b, uint64(p.Budget))
	b = appendString(b, p.Column)
	b = binary.AppendUvarint(b, uint64(p.MaxAgeBatches))
	return endRecord(b, 0)
}

// Replay applies every record in r — which must start with the file
// header — to a. On a truncated tail (or truncated header of an
// otherwise empty stream) it returns ErrTruncated after applying all
// complete records; on a checksum or decode failure, or an applier
// error, it returns an error wrapping ErrCorrupt (applier errors also
// wrap ErrApply). Replay never panics on malformed input.
func Replay(r io.Reader, a Applier) error {
	_, err := ReplayOffset(r, a)
	return err
}

// ReplayOffset is Replay reporting where it stopped: off is the byte
// offset of the first record NOT fully applied — the stream length on
// success, the failing record's start on error. Recovery uses the
// offset to examine what a failure left behind (torn tail vs damage in
// the middle of acknowledged history).
func ReplayOffset(r io.Reader, a Applier) (off int64, err error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, ErrTruncated
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != Magic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, got)
	}
	if got := binary.LittleEndian.Uint32(hdr[4:]); got != Version {
		return 0, fmt.Errorf("%w: unsupported format version %d", ErrCorrupt, got)
	}
	for {
		off = cr.n - int64(br.Buffered())
		kind, payload, err := readRecord(br)
		if errors.Is(err, io.EOF) {
			return off, nil
		}
		if err != nil {
			return off, err
		}
		if err := apply(a, kind, payload); err != nil {
			if errors.Is(err, ErrCorrupt) {
				return off, err
			}
			return off, fmt.Errorf("%w: %w: %v", ErrCorrupt, ErrApply, err)
		}
	}
}

// countingReader tracks how many bytes the underlying reader has
// yielded, so ReplayOffset can locate a record even through bufio's
// readahead (position = yielded − still buffered).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ContainsRecord reports whether data holds a well-formed framed record
// (known kind, plausible length, valid CRC) starting at ANY byte
// offset. Recovery uses it to classify a corrupt record in the newest
// segment: nothing decodable after the failure point means a torn tail
// (a crash mid-write, safe crash boundary), while a valid record after
// it means acknowledged history was damaged mid-segment. The scan is
// quadratic in the worst case but only ever runs over the bytes past a
// failed replay, which a genuine torn write keeps short.
func ContainsRecord(data []byte) bool {
	const overhead = recordHead + recordCRC
	for i := 0; i+overhead <= len(data); i++ {
		if data[i] == 0 || Kind(data[i]) >= kindMax {
			continue
		}
		n := int64(binary.LittleEndian.Uint32(data[i+1:]))
		end := int64(i) + overhead + n
		if n > 1<<30 || end > int64(len(data)) {
			continue
		}
		crc := crc32.NewIEEE()
		crc.Write(data[i : i+recordHead+int(n)])
		if crc.Sum32() == binary.LittleEndian.Uint32(data[end-4:]) {
			return true
		}
	}
	return false
}

func readRecord(br *bufio.Reader) (Kind, []byte, error) {
	var hdr [recordHead]byte
	if _, err := io.ReadFull(br, hdr[:1]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrTruncated
	}
	if _, err := io.ReadFull(br, hdr[1:]); err != nil {
		return 0, nil, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > 1<<30 {
		return 0, nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	// The length field is untrusted (corruption can claim up to the 1GiB
	// cap), so grow the buffer chunk by chunk as bytes actually arrive
	// instead of allocating the claimed size upfront.
	payload := make([]byte, 0, min(int(n), 1<<20))
	for remaining := int(n); remaining > 0; {
		chunk := min(remaining, 1<<20)
		off := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(br, payload[off:]); err != nil {
			return 0, nil, ErrTruncated
		}
		remaining -= chunk
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return 0, nil, ErrTruncated
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(sum[:]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return Kind(hdr[0]), payload, nil
}

// dec is a cursor over one record's payload; decoding errors stick so
// call sites stay linear.
type dec struct {
	b   []byte
	err error
}

func (d *dec) uvar() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad uvarint", ErrCorrupt)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad varint", ErrCorrupt)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.uvar()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n || n > 1<<20 {
		d.err = fmt.Errorf("%w: short string", ErrCorrupt)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) values() []int64 {
	n := d.uvar()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) { // every varint takes >= 1 byte
		d.err = fmt.Errorf("%w: implausible value count %d", ErrCorrupt, n)
		return nil
	}
	out := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.varint())
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *dec) positions() []int {
	n := d.uvar()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("%w: implausible position count %d", ErrCorrupt, n)
		return nil
	}
	out := make([]int, 0, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		prev += d.varint()
		if d.err != nil {
			return nil
		}
		out = append(out, int(prev))
	}
	return out
}

func apply(a Applier, kind Kind, payload []byte) error {
	d := &dec{b: payload}
	name := d.str()
	if d.err != nil {
		return d.err
	}
	switch kind {
	case KindCreate:
		nCols := d.uvar()
		if d.err != nil {
			return d.err
		}
		if nCols == 0 || nCols > 1<<16 {
			return fmt.Errorf("%w: implausible column count %d", ErrCorrupt, nCols)
		}
		cols := make([]string, 0, nCols)
		for i := uint64(0); i < nCols; i++ {
			cols = append(cols, d.str())
		}
		if d.err != nil {
			return d.err
		}
		return a.CreateTable(name, cols)
	case KindCreatePart:
		column := d.str()
		domain := d.varint()
		parts := d.uvar()
		strategy := d.str()
		budget := d.uvar()
		if d.err != nil {
			return d.err
		}
		if parts > 1<<20 || budget > 1<<40 {
			return fmt.Errorf("%w: implausible partition spec", ErrCorrupt)
		}
		return a.CreatePartitioned(name, column, domain, int(parts), strategy, int(budget))
	case KindDrop:
		return a.Drop(name)
	case KindInsert:
		nCols := d.uvar()
		if d.err != nil {
			return d.err
		}
		if nCols > 1<<16 {
			return fmt.Errorf("%w: implausible column count %d", ErrCorrupt, nCols)
		}
		vals := make(map[string][]int64, nCols)
		for i := uint64(0); i < nCols; i++ {
			col := d.str()
			vs := d.values()
			if d.err != nil {
				return d.err
			}
			vals[col] = vs
		}
		return a.Insert(name, vals)
	case KindForget:
		ps := d.positions()
		if d.err != nil {
			return d.err
		}
		return a.Forget(name, ps)
	case KindRemember:
		ps := d.positions()
		if d.err != nil {
			return d.err
		}
		return a.Remember(name, ps)
	case KindVacuum:
		return a.Vacuum(name)
	case KindPartInsert:
		n := d.uvar()
		if d.err != nil {
			return d.err
		}
		if n > 1<<20 {
			return fmt.Errorf("%w: implausible shard count %d", ErrCorrupt, n)
		}
		shards := make([]ShardMutation, 0, n)
		for i := uint64(0); i < n; i++ {
			idx := d.uvar()
			vs := d.values()
			ps := d.positions()
			if d.err != nil {
				return d.err
			}
			shards = append(shards, ShardMutation{Shard: int(idx), Values: vs, Forgotten: ps})
		}
		return a.PartInsert(name, shards)
	case KindPartAdapt:
		n := d.uvar()
		if d.err != nil {
			return d.err
		}
		if n > 1<<20 {
			return fmt.Errorf("%w: implausible shard count %d", ErrCorrupt, n)
		}
		shards := make([]ShardAdapt, 0, n)
		for i := uint64(0); i < n; i++ {
			idx := d.uvar()
			budget := d.uvar()
			ps := d.positions()
			if d.err != nil {
				return d.err
			}
			shards = append(shards, ShardAdapt{Shard: int(idx), Budget: int(budget), Forgotten: ps})
		}
		return a.PartAdapt(name, shards)
	case KindPolicy:
		p := PolicySpec{Strategy: d.str()}
		p.Budget = int(d.uvar())
		p.Column = d.str()
		p.MaxAgeBatches = int(d.uvar())
		if d.err != nil {
			return d.err
		}
		return a.SetPolicy(name, p)
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
}
