package amnesia

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// victimShapes are the tables TestWeightedVictimsPinned holds at their
// budgets: a small one, the ingest workload's 64 Ki budget with
// 4096-row batches, and an odd batch size that leaves partial bitmap
// words and sum-tree leaves everywhere.
var victimShapes = []struct {
	name                  string
	budget, batch, passes int
}{
	{"small", 500, 100, 60},
	{"64Ki", 64 << 10, 4096, 24},
	{"odd", 3001, 217, 80},
}

// pinnedVictims are the CRC-32s of the victim sets, each sorted, that
// the weighted strategies drew over victimShapes when the sampler still
// returned its victims in draw order. Reading them off the bitmap
// instead changes their order, never which tuples they are.
var pinnedVictims = map[string]uint32{
	"ante/small":     0x3f41f47e,
	"ante/64Ki":      0xdcb8ba99,
	"ante/odd":       0x44cf9ae0,
	"rot/small":      0xeb4cfc14,
	"rot/64Ki":       0xb070ccb4,
	"rot/odd":        0xd53eb8d4,
	"frequent/small": 0xb205e92b,
	"frequent/64Ki":  0xb7ef4bd6,
	"frequent/odd":   0x65d8b938,
	"decay/small":    0x93a94e7c,
	"decay/64Ki":     0x6846dfc0,
	"decay/odd":      0x800b8549,
}

// TestWeightedVictimsPinned runs every sampler-backed strategy through
// each shape — a batch arrives, a quarter batch of reads touches it,
// the strategy restores the budget, and every 16th pass vacuums — and
// checks that Forget returns strictly ascending positions and that the
// victim sets hash to pinnedVictims.
func TestWeightedVictimsPinned(t *testing.T) {
	for _, name := range []string{"ante", "rot", "frequent", "decay"} {
		for _, sh := range victimShapes {
			src := xrand.New(41)
			touch := xrand.New(42)
			strat, err := New(name, "a", src.Split())
			if err != nil {
				t.Fatal(err)
			}
			tb := table.New("t", "a")
			vals := make([]int64, sh.batch)
			touched := make([]int32, sh.batch/4)
			arrive := func() {
				if _, err := tb.AppendSingleColumn(vals); err != nil {
					t.Fatal(err)
				}
				for i := range touched {
					touched[i] = int32(touch.Intn(tb.Len()))
				}
				tb.TouchMany(touched)
			}
			for tb.Len() < sh.budget {
				arrive()
			}
			crc := crc32.NewIEEE()
			var buf []byte
			for pass := 0; pass < sh.passes; pass++ {
				arrive()
				got := strat.Forget(tb, tb.ActiveCount()-sh.budget)
				for i := 1; i < len(got); i++ {
					if got[i] <= got[i-1] {
						t.Fatalf("%s/%s pass %d: positions %d then %d, want strictly ascending", name, sh.name, pass, got[i-1], got[i])
					}
				}
				buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(got)))
				for _, p := range slices.Sorted(slices.Values(got)) {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
				}
				crc.Write(buf)
				if pass%16 == 15 {
					tb.Vacuum()
				}
			}
			key := name + "/" + sh.name
			if got := crc.Sum32(); got != pinnedVictims[key] {
				t.Errorf("%s: victim CRC %#08x, pinned %#08x", key, got, pinnedVictims[key])
			}
		}
	}
}
