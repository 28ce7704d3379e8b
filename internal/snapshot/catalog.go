package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"amnesiadb/internal/table"
)

// Catalog snapshots cover the whole namespace — every flat table and
// every partition set, with the policy and budget state that the WAL's
// amnesia records assume — so recovery can restore one file and replay
// the log tail. Layout: a header (magic, version, section count)
// followed by self-delimiting sections, each kind-tagged,
// length-prefixed, and closed by a CRC-32 of its body so a torn or
// bit-rotted snapshot is detected section-by-section and recovery can
// fall back to the previous generation.
const (
	catalogMagic   = 0x414d4e43 // "AMNC"
	catalogVersion = 1

	sectionTable = 1
	sectionPart  = 2
)

// ErrCatalogCorrupt reports a snapshot that fails validation — bad
// magic, bad CRC, or an undecodable section. Recovery treats it as
// "try the previous generation".
var ErrCatalogCorrupt = errors.New("snapshot: corrupt catalog")

// Policy is the decay policy attached to a flat table, recorded so a
// restored table keeps forgetting the way it was told to.
type Policy struct {
	Strategy      string
	Budget        int
	Column        string
	MaxAgeBatches int
}

// TableEntry is one flat table plus its policy.
type TableEntry struct {
	Table  *table.Table
	Policy Policy
}

// ShardEntry is one partition of a set: its key range, its current
// (possibly adapted) budget, and its tuple store.
type ShardEntry struct {
	Lo, Hi int64
	Budget int
	Table  *table.Table
}

// PartEntry is one partition set.
type PartEntry struct {
	Name     string
	Column   string
	Strategy string
	Domain   int64
	Shards   []ShardEntry
}

// Catalog is the full namespace a snapshot captures.
type Catalog struct {
	Tables []TableEntry
	Parts  []PartEntry
}

// WriteCatalog serialises the catalog.
func WriteCatalog(w io.Writer, c *Catalog) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, []uint64{catalogMagic, catalogVersion, uint64(len(c.Tables) + len(c.Parts))}); err != nil {
		return err
	}
	var body bytes.Buffer
	for _, te := range c.Tables {
		body.Reset()
		if err := encodeTableSection(&body, te); err != nil {
			return err
		}
		if err := writeSection(bw, sectionTable, body.Bytes()); err != nil {
			return err
		}
	}
	for _, pe := range c.Parts {
		body.Reset()
		if err := encodePartSection(&body, pe); err != nil {
			return err
		}
		if err := writeSection(bw, sectionPart, body.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeSection(w io.Writer, kind byte, body []byte) error {
	if _, err := w.Write([]byte{kind}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(body))); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(body))
}

func encodeTableSection(w io.Writer, te TableEntry) error {
	if err := writeString(w, te.Policy.Strategy); err != nil {
		return err
	}
	if err := writeString(w, te.Policy.Column); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, []uint64{uint64(te.Policy.Budget), uint64(te.Policy.MaxAgeBatches)}); err != nil {
		return err
	}
	return writeTableField(w, te.Table)
}

// writeTableField writes t's table record as one length-prefixed field.
func writeTableField(w io.Writer, t *table.Table) error {
	var rec bytes.Buffer
	if err := writeTable(&rec, t.State()); err != nil {
		return err
	}
	return writeBytes(w, rec.Bytes())
}

func encodePartSection(w io.Writer, pe PartEntry) error {
	for _, s := range []string{pe.Name, pe.Column, pe.Strategy} {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, []uint64{uint64(pe.Domain), uint64(len(pe.Shards))}); err != nil {
		return err
	}
	for _, sh := range pe.Shards {
		if err := binary.Write(w, binary.LittleEndian, []uint64{uint64(sh.Lo), uint64(sh.Hi), uint64(sh.Budget)}); err != nil {
			return err
		}
		if err := writeTableField(w, sh.Table); err != nil {
			return err
		}
	}
	return nil
}

// ReadCatalog restores a catalog written by WriteCatalog. Any
// validation failure — truncation included, since a snapshot is
// written whole and fsynced before its manifest entry — reports
// ErrCatalogCorrupt.
func ReadCatalog(r io.Reader) (*Catalog, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint64
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCatalogCorrupt, err)
	}
	if hdr[0] != catalogMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCatalogCorrupt, hdr[0])
	}
	if hdr[1] != catalogVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCatalogCorrupt, hdr[1])
	}
	nSections := int(hdr[2])
	if nSections < 0 || nSections > 1<<24 {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCatalogCorrupt, nSections)
	}
	var c Catalog
	for i := 0; i < nSections; i++ {
		kind, body, err := readSection(br)
		if err != nil {
			return nil, err
		}
		switch kind {
		case sectionTable:
			var te TableEntry
			te, err = decodeTableSection(bytes.NewReader(body))
			c.Tables = append(c.Tables, te)
		case sectionPart:
			var pe PartEntry
			pe, err = decodePartSection(bytes.NewReader(body))
			c.Parts = append(c.Parts, pe)
		default:
			err = fmt.Errorf("unknown section kind %d", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCatalogCorrupt, err)
		}
	}
	return &c, nil
}

func readSection(r io.Reader) (byte, []byte, error) {
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: short section kind: %v", ErrCatalogCorrupt, err)
	}
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, nil, fmt.Errorf("%w: short section length: %v", ErrCatalogCorrupt, err)
	}
	if n > 1<<33 {
		return 0, nil, fmt.Errorf("%w: implausible section length %d", ErrCatalogCorrupt, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: short section body: %v", ErrCatalogCorrupt, err)
	}
	var sum uint32
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return 0, nil, fmt.Errorf("%w: short section crc: %v", ErrCatalogCorrupt, err)
	}
	if sum != crc32.ChecksumIEEE(body) {
		return 0, nil, fmt.Errorf("%w: section crc mismatch", ErrCatalogCorrupt)
	}
	return kind[0], body, nil
}

func decodeTableSection(r io.Reader) (te TableEntry, err error) {
	if te.Policy.Strategy, err = readString(r); err != nil {
		return te, err
	}
	if te.Policy.Column, err = readString(r); err != nil {
		return te, err
	}
	var nums [2]uint64
	if err := binary.Read(r, binary.LittleEndian, &nums); err != nil {
		return te, fmt.Errorf("short policy: %w", err)
	}
	te.Policy.Budget, te.Policy.MaxAgeBatches = int(nums[0]), int(nums[1])
	te.Table, err = readTableField(r)
	return te, err
}

func decodePartSection(r io.Reader) (pe PartEntry, err error) {
	for _, dst := range []*string{&pe.Name, &pe.Column, &pe.Strategy} {
		if *dst, err = readString(r); err != nil {
			return pe, err
		}
	}
	var nums [2]uint64
	if err := binary.Read(r, binary.LittleEndian, &nums); err != nil {
		return pe, fmt.Errorf("short part header: %w", err)
	}
	pe.Domain = int64(nums[0])
	if nums[1] == 0 || nums[1] > 1<<16 {
		return pe, fmt.Errorf("implausible shard count %d", nums[1])
	}
	for range nums[1] {
		var hdr [3]uint64
		if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
			return pe, fmt.Errorf("short shard header: %w", err)
		}
		tbl, err := readTableField(r)
		if err != nil {
			return pe, err
		}
		pe.Shards = append(pe.Shards, ShardEntry{
			Lo: int64(hdr[0]), Hi: int64(hdr[1]), Budget: int(hdr[2]), Table: tbl,
		})
	}
	return pe, nil
}

// readTableField reads a table record written by writeTableField.
func readTableField(r io.Reader) (*table.Table, error) {
	rec, err := readBytes(r)
	if err != nil {
		return nil, err
	}
	return readTable(bytes.NewReader(rec))
}
