package machine

import (
	"math/rand"
	"testing"
)

// The line-keyed tables replace built-in maps on the per-reference hot
// path; this file fuzzes each against a map oracle through chunk
// materialization, growth and (for timeTab) backward-shift deletion.

func TestSeenTabAgainstMap(t *testing.T) {
	tab := newSeenTab(64)
	oracle := map[uint64]uint8{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		// Line-address-shaped keys: multiples of 64, clustered, with a
		// far-away band to exercise chunk materialization.
		k := (uint64(rng.Intn(50000)) + 1) * 64
		if rng.Intn(10) == 0 {
			k += 1 << 30
		}
		switch rng.Intn(3) {
		case 0:
			v := uint8(rng.Intn(4))
			tab.set(k, v)
			oracle[k] = v
		default:
			if got, want := tab.get(k), oracle[k]; got != want {
				t.Fatalf("get(%d) = %d, want %d", k, got, want)
			}
		}
	}
	tab.reset()
	for k := range oracle {
		if tab.get(k) != 0 {
			t.Fatalf("reset left key %d", k)
		}
	}
}

func TestTimeTabAgainstMap(t *testing.T) {
	tab := newTimeTab()
	oracle := map[uint64]int64{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300000; i++ {
		k := (uint64(rng.Intn(5000)) + 1) * 32
		switch rng.Intn(4) {
		case 0:
			v := rng.Int63()
			tab.set(k, v)
			oracle[k] = v
		case 1:
			tab.del(k)
			delete(oracle, k)
		default:
			got, ok := tab.get(k)
			want, wantOK := oracle[k]
			if ok != wantOK || got != want {
				t.Fatalf("get(%d) = (%d,%v), want (%d,%v)", k, got, ok, want, wantOK)
			}
		}
		if tab.len() != len(oracle) {
			t.Fatalf("len = %d, oracle has %d", tab.len(), len(oracle))
		}
	}
	// Drain completely through the deletion path.
	for k := range oracle {
		tab.del(k)
	}
	if tab.len() != 0 {
		t.Fatalf("len = %d after drain", tab.len())
	}
}

// TestDirTabAgainstMap drives the chunked directory with random lines
// against a map oracle, across a reset that re-keys it for a new line
// size, and holds one pointer across every later insertion: leaves
// never move.
func TestDirTabAgainstMap(t *testing.T) {
	tab := newDirTab(64)
	rng := rand.New(rand.NewSource(13))
	for _, lineSize := range []uint64{64, 16, 256} {
		tab.reset(lineSize)
		oracle := map[uint64]uint16{}
		held := tab.entry(lineSize)
		held.sharers = 0xBEEF
		for i := 0; i < 200000; i++ {
			// Clustered lines, with a far-away band to exercise chunk
			// materialization.
			k := (uint64(rng.Intn(50000)) + 2) * lineSize
			if rng.Intn(10) == 0 {
				k += 1 << 30
			}
			e := tab.entry(k)
			if e.sharers != oracle[k] {
				t.Fatalf("line size %d: entry(%d).sharers = %d, want %d", lineSize, k, e.sharers, oracle[k])
			}
			if rng.Intn(3) == 0 {
				v := uint16(rng.Intn(1 << 16))
				e.sharers = v
				oracle[k] = v
			}
		}
		if held.sharers != 0xBEEF || tab.entry(lineSize) != held {
			t.Fatalf("line size %d: the first entry moved or changed", lineSize)
		}
	}
}
