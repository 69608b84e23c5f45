// Package machine models the paper's simulated hardware: a 4-processor
// directory-based cache-coherent NUMA shared-memory multiprocessor. Each
// node has an off-the-shelf processor with a 16-entry write buffer, a
// direct-mapped on-chip primary cache, and a 2-way set-associative
// off-chip secondary cache. A full-bit-vector MSI directory lives at each
// line's home node and the interconnect is a constant-delay network.
// Misses are classified cold/conflict/coherence and attributed to the
// database data structure they fall on.
package machine

import "fmt"

// Config describes one machine instance. The zero value is not valid;
// start from Baseline.
type Config struct {
	Nodes int

	L1Bytes int // primary cache size
	L1Line  int // primary cache line size
	L2Bytes int // secondary cache size
	L2Line  int // secondary cache line size (coherence granularity)
	L2Ways  int // secondary cache associativity

	WriteBufEntries int // coalescing write buffer depth

	// Round-trip latencies (processor cycles) for a primary-cache miss
	// satisfied at each level, exactly as the paper reports them.
	L2HitLat   int64 // satisfied by the secondary cache
	LocalMem   int64 // satisfied by local memory
	Remote2Hop int64 // satisfied by a remote home, clean
	Remote3Hop int64 // satisfied via a third node holding the line dirty

	// DirOccupancy is how long a request occupies its home directory;
	// queueing behind it is the contention the paper models everywhere
	// but the network.
	DirOccupancy int64

	// TransferPerWord is the extra transfer time per 8-byte word by
	// which a miss's round trip grows (or shrinks) when the line is
	// longer (or shorter) than the baseline 32-byte L1 / 64-byte L2
	// lines. The paper's line-size study notes that "each miss takes
	// longer to satisfy, but there are many fewer misses".
	TransferPerWord int64

	// Sequential data prefetching (Section 6): on each access to
	// database data, fetch the next PrefetchDegree primary-cache lines
	// into the primary cache.
	PrefetchData   bool
	PrefetchDegree int

	// SnoopingBus switches the interconnect from the paper's
	// directory-based CC-NUMA to a bus-based snooping SMP (the era's
	// Sequent Symmetry style): every secondary-cache miss arbitrates
	// for one global bus and pays BusLat plus the memory access;
	// invalidations are broadcast for free on the same transaction.
	// Contention concentrates on the single bus rather than on per-home
	// directories.
	SnoopingBus bool
	// BusLat is the bus arbitration+transfer round trip added to each
	// bus transaction, and also the bus occupancy per transaction.
	BusLat int64
}

// Baseline returns the paper's baseline architecture: 4 processors,
// 4-KB direct-mapped L1 with 32-byte lines, 128-KB 2-way L2 with 64-byte
// lines, 16-entry write buffer, 16/80/249/351-cycle round trips.
func Baseline() Config {
	return Config{
		Nodes:           4,
		L1Bytes:         4 << 10,
		L1Line:          32,
		L2Bytes:         128 << 10,
		L2Line:          64,
		L2Ways:          2,
		WriteBufEntries: 16,
		L2HitLat:        16,
		LocalMem:        80,
		Remote2Hop:      249,
		Remote3Hop:      351,
		DirOccupancy:    6,
		TransferPerWord: 2,
		BusLat:          40,
		PrefetchDegree:  4,
	}
}

// WithLineSize returns the config with the secondary line size set to
// l2Line and, as in all the paper's experiments, the primary line size
// set to half of it.
func (c Config) WithLineSize(l2Line int) Config {
	c.L2Line = l2Line
	c.L1Line = l2Line / 2
	return c
}

// WithCacheSizes returns the config with the given cache capacities.
func (c Config) WithCacheSizes(l1, l2 int) Config {
	c.L1Bytes = l1
	c.L2Bytes = l2
	return c
}

// TagReach is the first address the secondary cache cannot hold: its
// 32-bit tags reach 2^32-1 times the bytes of one way. Every address a
// machine touches must lie below it.
func (c Config) TagReach() uint64 {
	return tagReach(uint64(c.L2Bytes / c.L2Ways))
}

// Validate checks structural invariants.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1 || c.Nodes > 16:
		return fmt.Errorf("machine: nodes = %d, want 1..16", c.Nodes)
	case c.L1Line < 8 || c.L1Line&(c.L1Line-1) != 0:
		return fmt.Errorf("machine: L1 line %d not a power of two >= 8", c.L1Line)
	case c.L2Line < c.L1Line || c.L2Line&(c.L2Line-1) != 0:
		return fmt.Errorf("machine: L2 line %d invalid (L1 line %d)", c.L2Line, c.L1Line)
	case c.L1Bytes%c.L1Line != 0:
		return fmt.Errorf("machine: L1 size %d not a multiple of line %d", c.L1Bytes, c.L1Line)
	case c.L2Ways < 1 || c.L2Bytes%(c.L2Line*c.L2Ways) != 0:
		return fmt.Errorf("machine: L2 geometry invalid (%d bytes, %d-byte lines, %d ways)",
			c.L2Bytes, c.L2Line, c.L2Ways)
	case c.WriteBufEntries < 1:
		return fmt.Errorf("machine: write buffer must have at least one entry")
	}
	return nil
}
