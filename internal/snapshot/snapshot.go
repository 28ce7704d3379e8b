// Package snapshot persists the catalog — every table's state plus the
// policies and partition layouts around it — to an io.Writer and
// restores it: the mechanism behind §5's "recover a backup version of
// the database from cold storage explicitly". Each table is one
// versioned little-endian record: header, schema, per-column values
// (compressed with the Auto codec), and the tuple metadata (active
// bitmap, insert batches, access counts) — everything a strategy needs
// survives the round trip.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"

	"amnesiadb/internal/compress"
	"amnesiadb/internal/table"
)

// magic identifies table records; version gates layout changes.
const (
	magic   = 0x414d4e53 // "AMNS"
	version = 1
)

// writeTable serialises one table's state.
func writeTable(w io.Writer, s table.State) error {
	if err := binary.Write(w, binary.LittleEndian, []uint64{magic, version, uint64(len(s.Batch)), uint64(s.Batches), uint64(len(s.Columns))}); err != nil {
		return err
	}
	if err := writeString(w, s.Name); err != nil {
		return err
	}
	codec := compress.Auto{}
	for i, name := range s.Columns {
		if err := writeString(w, name); err != nil {
			return err
		}
		if err := writeBytes(w, codec.Compress(nil, s.Values[i])); err != nil {
			return err
		}
	}
	if err := writeBytes(w, s.Active); err != nil {
		return err
	}
	if err := writeBytes(w, codec.Compress(nil, s.Batch)); err != nil {
		return err
	}
	return writeBytes(w, codec.Compress(nil, s.Access))
}

func writeString(w io.Writer, s string) error { return writeBytes(w, []byte(s)) }

func writeBytes(w io.Writer, b []byte) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readTable restores a table written by writeTable; table.Restore
// validates the decoded state.
func readTable(r io.Reader) (*table.Table, error) {
	var hdr [5]uint64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("snapshot: short header: %w", err)
	}
	if hdr[0] != magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x", hdr[0])
	}
	if hdr[1] != version {
		return nil, fmt.Errorf("snapshot: unsupported version %d", hdr[1])
	}
	s := table.State{Batches: int(hdr[3])}
	var err error
	if s.Name, err = readString(r); err != nil {
		return nil, err
	}
	codec := compress.Auto{}
	// Each column is read before the next is counted, so a corrupt
	// column count fails on the first missing column, not on an
	// allocation.
	for range hdr[4] {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		vals, err := readInts(r, codec)
		if err != nil {
			return nil, err
		}
		s.Columns, s.Values = append(s.Columns, name), append(s.Values, vals)
	}
	if s.Active, err = readBytes(r); err != nil {
		return nil, err
	}
	if s.Batch, err = readInts(r, codec); err != nil {
		return nil, err
	}
	if s.Access, err = readInts(r, codec); err != nil {
		return nil, err
	}
	if uint64(len(s.Batch)) != hdr[2] {
		return nil, fmt.Errorf("snapshot: %d batch ids, header says %d tuples", len(s.Batch), hdr[2])
	}
	return table.Restore(s)
}

func readInts(r io.Reader, codec compress.Auto) ([]int64, error) {
	enc, err := readBytes(r)
	if err != nil {
		return nil, err
	}
	return codec.Decompress(nil, enc)
}

func readString(r io.Reader) (string, error) {
	b, err := readBytes(r)
	return string(b), err
}

func readBytes(r io.Reader) ([]byte, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("snapshot: short length: %w", err)
	}
	if n > 1<<33 {
		return nil, fmt.Errorf("snapshot: implausible field length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("snapshot: short field: %w", err)
	}
	return b, nil
}
