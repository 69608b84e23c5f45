// Package lockmgr implements Postgres95's Lock Management Module: the
// multi-type (read/write), multi-level (relation/page) data locks whose
// state lives in two shared hash tables — the Lock hash and the Xid
// hash — protected by the LockMgrLock spinlock. The paper finds that in
// Index queries this module's structures (LockHash, XidHash, and above
// all LockSLock) take a large share of the metadata misses, because
// index scans go through the lock manager for every page they touch.
package lockmgr

import (
	"fmt"

	"repro/internal/pg/shmtab"
	"repro/internal/sched"
	"repro/internal/simm"
)

// Mode is a lock type.
type Mode uint8

const (
	// Read locks are shared.
	Read Mode = iota
	// Write locks are exclusive.
	Write
)

// Level is a lock granularity. Postgres95 defines relation, page, and
// tuple levels; like Postgres95 itself (where only the relation level is
// fully implemented for data locking), the tuple level exists in the tag
// space but is unused by the queries.
type Level uint8

const (
	// LevelRelation locks a whole relation.
	LevelRelation Level = iota
	// LevelPage locks one page of a relation or index.
	LevelPage
	// LevelTuple locks one tuple (defined but unused, as in Postgres95).
	LevelTuple
)

// Tag names a lockable object.
type Tag struct {
	RelID uint32
	Level Level
	Page  uint32
}

// key packs the tag into the shared tables' uint64 key space:
// relid(24) | level(2) | page(30). RelIDs start at 1 so keys are never
// the reserved 0 or ~0.
func (t Tag) key() uint64 {
	if t.RelID == 0 || t.RelID >= 1<<24 || t.Page >= 1<<30 {
		panic(fmt.Sprintf("lockmgr: tag out of range: %+v", t))
	}
	return uint64(t.RelID)<<32 | uint64(t.Level)<<30 | uint64(t.Page)
}

// xidKey names one transaction's hold on one lock.
func xidKey(xid int, t Tag) uint64 { return uint64(xid+1)<<56 | t.key() }

// Lock-hash values pack the holder state: low 32 bits count readers,
// high 32 bits hold writer+1 (0 = no writer).
func packLock(readers uint32, writer int32) uint64 {
	return uint64(uint32(writer+1))<<32 | uint64(readers)
}

func unpackLock(v uint64) (readers uint32, writer int32) {
	return uint32(v), int32(uint32(v>>32)) - 1
}

// Manager is the lock management module.
type Manager struct {
	lockHash *shmtab.Table
	xidHash  *shmtab.Table

	// Lock is the LockMgrLock spinlock guarding both tables.
	Lock sched.SpinLock

	// RetryBackoff is the busy-wait before re-checking a conflicting
	// data lock. Read-only DSS queries never hit this path.
	RetryBackoff int64
}

// New creates the module with the given table capacity (slots).
func New(mem *simm.Memory, capacity int) *Manager {
	m := &Manager{
		lockHash:     shmtab.New(mem, "LockHash", capacity, simm.CatLockHash),
		xidHash:      shmtab.New(mem, "XidHash", capacity, simm.CatXidHash),
		RetryBackoff: 200,
	}
	r := mem.AllocRegion("LockMgrLock", simm.PageSize, simm.CatLockSLock, 0)
	m.Lock = sched.SpinLock{Addr: r.Base}
	return m
}

// Attach reconstructs a Manager over the lock regions of an existing
// address space (trace replay over a layout-reconstructed memory, whose
// zeroed lock regions are the all-released state). capacity must be the
// slot count the tables were created with.
func Attach(mem *simm.Memory, capacity uint64) (*Manager, error) {
	lock := mem.RegionByName("LockHash")
	xid := mem.RegionByName("XidHash")
	slock := mem.RegionByName("LockMgrLock")
	if lock == nil || xid == nil || slock == nil {
		return nil, fmt.Errorf("lockmgr: attach: lock regions missing from address space")
	}
	return &Manager{
		lockHash:     shmtab.Attach(mem, lock, capacity),
		xidHash:      shmtab.Attach(mem, xid, capacity),
		Lock:         sched.SpinLock{Addr: slock.Base},
		RetryBackoff: 200,
	}, nil
}

// Acquire takes the lock named by tag in the given mode for transaction
// xid (the simulated processor's query), spinning with backoff until any
// conflicting holder releases. Lock-table probes and updates are traced
// shared accesses; waiting happens with LockMgrLock released. The
// operation is bracketed for the engine's Recorder (sched.Recorder's
// BeginLockOp/EndLockOp), so a trace capture records it symbolically.
func (m *Manager) Acquire(p *sched.Proc, xid int, tag Tag, mode Mode) {
	if r := p.Recorder(); r != nil {
		r.BeginLockOp(p.ID(), true, tag.RelID, uint8(tag.Level), tag.Page, uint8(mode))
		defer r.EndLockOp(p.ID())
	}
	k := tag.key()
	backoff := m.RetryBackoff + int64(17*p.ID())
	for {
		p.Acquire(m.Lock)
		v, ok := m.lockHash.Lookup(p, k)
		var readers uint32
		writer := int32(-1)
		if ok {
			readers, writer = unpackLock(v)
		}
		conflict := false
		switch mode {
		case Read:
			conflict = writer >= 0 && writer != int32(xid)
		case Write:
			conflict = (writer >= 0 && writer != int32(xid)) ||
				(readers > 0 && !(readers == 1 && m.heldByXid(p, xid, tag)))
		}
		if !conflict {
			if mode == Read {
				readers++
			} else {
				writer = int32(xid)
			}
			m.lockHash.Insert(p, k, packLock(readers, writer))
			xk := xidKey(xid, tag)
			n, _ := m.xidHash.Lookup(p, xk)
			m.xidHash.Insert(p, xk, n+1)
			p.Release(m.Lock)
			return
		}
		p.Release(m.Lock)
		// Exponential, per-processor-jittered backoff: a fixed period
		// lets the deterministic interleaving starve the lock holder's
		// release of the LockMgrLock spinlock (a livelock real TATAS
		// systems exhibit too).
		p.Busy(backoff)
		if backoff < 64*m.RetryBackoff {
			backoff *= 2
		}
	}
}

// heldByXid reports whether xid already holds tag (used to let a reader
// upgrade its own lock without self-conflict). Called with LockMgrLock
// held.
func (m *Manager) heldByXid(p *sched.Proc, xid int, tag Tag) bool {
	n, ok := m.xidHash.Lookup(p, xidKey(xid, tag))
	return ok && n > 0
}

// Release drops one hold on the lock.
func (m *Manager) Release(p *sched.Proc, xid int, tag Tag, mode Mode) {
	if r := p.Recorder(); r != nil {
		r.BeginLockOp(p.ID(), false, tag.RelID, uint8(tag.Level), tag.Page, uint8(mode))
		defer r.EndLockOp(p.ID())
	}
	k := tag.key()
	p.Acquire(m.Lock)
	v, ok := m.lockHash.Lookup(p, k)
	if !ok {
		panic(fmt.Sprintf("lockmgr: release of unheld lock %+v", tag))
	}
	readers, writer := unpackLock(v)
	switch mode {
	case Read:
		if readers == 0 {
			panic(fmt.Sprintf("lockmgr: read-release with no readers: %+v", tag))
		}
		readers--
	case Write:
		if writer != int32(xid) {
			panic(fmt.Sprintf("lockmgr: write-release by non-holder: %+v", tag))
		}
		writer = -1
	}
	if readers == 0 && writer < 0 {
		m.lockHash.Delete(p, k)
	} else {
		m.lockHash.Insert(p, k, packLock(readers, writer))
	}
	xk := xidKey(xid, tag)
	n, _ := m.xidHash.Lookup(p, xk)
	if n <= 1 {
		m.xidHash.Delete(p, xk)
	} else {
		m.xidHash.Insert(p, xk, n-1)
	}
	p.Release(m.Lock)
}

// TableCap returns the hash tables' slot count (trace capture records
// it so Attach can rebuild tables of identical geometry).
func (m *Manager) TableCap() uint64 { return m.lockHash.Cap() }

// Holders returns the untraced reader count and writer of a tag (tests).
func (m *Manager) Holders(tag Tag) (readers uint32, writer int32) {
	v, ok := m.lockHash.LookupRaw(tag.key())
	if !ok {
		return 0, -1
	}
	return unpackLock(v)
}
