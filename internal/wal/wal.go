// Package wal is a general-purpose durable append-only write-ahead
// log: CRC-32-framed varint-length records packed into 64KB-aligned
// segment files (the internal/trace blob discipline applied to a log),
// with segment rotation, fsync batching under a configurable
// group-commit window, torn-tail truncation on open, and snapshot +
// compaction. The log stores opaque record payloads; callers define
// the record schema and the replay state machine (internal/cluster's
// Journal journals the fabric's job/task transitions through it).
//
// Durability contract: when Append returns nil the record is fsynced
// — it survives a crash and is replayed, in append order, by the next
// Open. A torn tail (a crash mid-write or mid-sync) truncates to the
// last clean frame; damage before the tail is ErrCorrupt. The FS seam
// makes this provable: tests run the log over MemFS, where only
// synced bytes survive Crash, and assert that every prefix of the
// physical log recovers to a consistent state.
package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Log errors beyond ErrCorrupt.
var (
	ErrClosed = errors.New("wal: log closed")
	// ErrKilled is returned once Kill simulated a crash: the process
	// half of the log is dead and no further appends are accepted.
	ErrKilled = errors.New("wal: log killed (simulated crash)")
)

// Options tunes a Log. The zero value (plus Dir) gives production
// defaults: OS filesystem, 4MB segments, fsync on every append.
type Options struct {
	// Dir holds the segment files. Required.
	Dir string
	// FS is the filesystem seam (default DirFS{}).
	FS FS
	// SegmentBytes rotates the active segment once it reaches this
	// size (default 4MB; rounded up to a 64KB multiple).
	SegmentBytes int64
	// SyncWindow is the group-commit window: appends within it share
	// one fsync, each blocking until that fsync lands. 0 fsyncs every
	// append individually.
	SyncWindow time.Duration
	// Metrics registers the dssmem_wal_* instruments (nil = unmetered).
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = DirFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if rem := o.SegmentBytes % BlockSize; rem != 0 {
		o.SegmentBytes += BlockSize - rem
	}
	return o
}

type walMetrics struct {
	appends, fsyncs, bytes *metrics.Counter
	recRecords, recTrunc   *metrics.Gauge
}

func newWalMetrics(reg *metrics.Registry) *walMetrics {
	return &walMetrics{
		appends: reg.Counter("dssmem_wal_appends_total",
			"Records appended (durably) to the write-ahead log."),
		fsyncs: reg.Counter("dssmem_wal_fsyncs_total",
			"fsync calls issued by the write-ahead log; group commit batches appends under one."),
		bytes: reg.Counter("dssmem_wal_bytes_total",
			"Bytes written to write-ahead log segments, including framing and block padding."),
		recRecords: reg.Gauge("dssmem_wal_recovery_records",
			"Records replayed from the log by the most recent open."),
		recTrunc: reg.Gauge("dssmem_wal_recovery_truncated_bytes",
			"Torn-tail bytes truncated from the log by the most recent open."),
	}
}

// Log is an open write-ahead log. Safe for concurrent appenders.
type Log struct {
	opt Options
	met *walMetrics

	mu      sync.Mutex
	f       File
	seq     uint64   // active segment
	segs    []uint64 // live segment seqs, ascending, ending in seq
	size    int64    // active segment size
	appends int
	err     error // sticky: a failed write or sync poisons the log
	closed  bool

	waiters   []chan error
	syncTimer *time.Timer

	// recovery outcome of Open, for callers surfacing it.
	RecoveredRecords int
	TruncatedBytes   int64
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.opt.Dir, fmt.Sprintf("wal-%08d.seg", seq))
}

// Open opens (or creates) the log in opt.Dir, replaying every durable
// record in append order through replay before returning. A torn tail
// on the final segment is truncated (counted in
// dssmem_wal_recovery_truncated_bytes); torn bytes anywhere earlier
// are ErrCorrupt. A replay callback error aborts the open.
func Open(opt Options, replay func(rec []byte) error) (*Log, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	l := &Log{opt: opt, met: newWalMetrics(opt.Metrics)}

	names, err := opt.FS.List(opt.Dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		var seq uint64
		if n, _ := fmt.Sscanf(name, "wal-%08d.seg", &seq); n == 1 && name == fmt.Sprintf("wal-%08d.seg", seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	records, truncated := 0, int64(0)
	for i, seq := range seqs {
		last := i == len(seqs)-1
		f, err := opt.FS.Create(l.segPath(seq))
		if err != nil {
			return nil, err
		}
		buf, err := readAll(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		res, err := scanSegment(buf, replay)
		if err != nil {
			f.Close()
			return nil, err
		}
		if res.clean > 0 && res.seq != seq {
			f.Close()
			return nil, fmt.Errorf("%w: segment %d carries header seq %d", ErrCorrupt, seq, res.seq)
		}
		records += res.records
		if !last {
			f.Close()
			if res.torn {
				return nil, fmt.Errorf("%w: torn bytes in non-final segment %d", ErrCorrupt, seq)
			}
			l.segs = append(l.segs, seq)
			continue
		}
		switch {
		case res.clean == 0:
			// Not even the header landed durably (empty file or torn
			// preamble): it carried no records, so recreate it fresh at
			// the same seq — ordering stays monotonic.
			truncated += int64(len(buf))
			f.Close()
			if err := opt.FS.Remove(l.segPath(seq)); err != nil {
				return nil, err
			}
			if err := l.createSegment(seq); err != nil {
				return nil, err
			}
		case res.torn:
			truncated += int64(len(buf)) - res.clean
			if err := f.Truncate(res.clean); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
			l.f, l.seq, l.size = f, seq, res.clean
		default:
			l.f, l.seq, l.size = f, seq, res.clean
		}
		l.segs = append(l.segs, seq)
	}
	if l.f == nil {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		l.segs = []uint64{1}
	}
	l.RecoveredRecords, l.TruncatedBytes = records, truncated
	l.met.recRecords.Set(float64(records))
	l.met.recTrunc.Set(float64(truncated))
	return l, nil
}

func readAll(f File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if err != nil && !(errors.Is(err, io.EOF) && int64(n) == size) {
		return nil, err
	}
	return buf[:n], nil
}

// createSegment makes seq the active segment with a fresh header.
func (l *Log) createSegment(seq uint64) error {
	f, err := l.opt.FS.Create(l.segPath(seq))
	if err != nil {
		return err
	}
	hdr := segmentHeader(seq)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	l.met.fsyncs.Inc()
	l.met.bytes.Add(float64(len(hdr)))
	l.f, l.seq, l.size = f, seq, int64(len(hdr))
	return nil
}

// Append durably appends one record: when it returns nil the record
// has been fsynced (sharing the fsync with every other append inside
// the group-commit window) and will be replayed by the next Open.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	// Rotate when the active segment is full (never leaving a segment
	// empty, so rotation always advances).
	frame := appendRecord(nil, l.size, payload)
	if l.size+int64(len(frame)) > l.opt.SegmentBytes && l.size > int64(len(segmentHeader(l.seq))) {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
		frame = appendRecord(nil, l.size, payload)
	}
	if err := l.writeLocked(frame); err != nil {
		l.mu.Unlock()
		return err
	}
	l.appends++
	l.met.appends.Inc()

	if l.opt.SyncWindow <= 0 {
		err := l.syncLocked()
		l.mu.Unlock()
		return err
	}
	ch := make(chan error, 1)
	l.waiters = append(l.waiters, ch)
	if l.syncTimer == nil {
		l.syncTimer = time.AfterFunc(l.opt.SyncWindow, l.groupCommit)
	}
	l.mu.Unlock()
	return <-ch
}

func (l *Log) usableLocked() error {
	if l.err != nil {
		// The sticky error (torn tail, ErrKilled) outranks ErrClosed so
		// callers can tell a crashed log from a cleanly closed one.
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// writeLocked lands b at the current tail. A failed or short write
// poisons the log: the tail is now torn, and only a re-open (which
// truncates it) can make the file consistent again.
func (l *Log) writeLocked(b []byte) error {
	n, err := l.f.WriteAt(b, l.size)
	l.size += int64(n)
	l.met.bytes.Add(float64(n))
	if err == nil && n < len(b) {
		err = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(b))
	}
	if err != nil {
		l.err = err
	}
	return err
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	l.met.fsyncs.Inc()
	return nil
}

// groupCommit fires at the end of a sync window: one fsync settles
// every waiter that appended inside it.
func (l *Log) groupCommit() {
	l.mu.Lock()
	l.syncTimer = nil
	waiters := l.waiters
	l.waiters = nil
	var err error
	if l.closed {
		err = ErrClosed
	} else if l.err != nil {
		err = l.err
	} else {
		err = l.syncLocked()
	}
	l.mu.Unlock()
	for _, ch := range waiters {
		ch <- err
	}
}

// rotateLocked seals the active segment (final fsync) and starts the
// next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	l.f.Close()
	if err := l.createSegment(l.seq + 1); err != nil {
		l.err = err
		return err
	}
	l.segs = append(l.segs, l.seq)
	return nil
}

// Snapshot compacts the log: rotates to a fresh segment, writes state
// as its first record, fsyncs, then removes every older segment. The
// next Open replays any pre-snapshot stragglers first (removal is not
// atomic across files), then the snapshot record — callers treat a
// snapshot record as a full state reset, which makes the straggler
// replay harmless.
func (l *Log) Snapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if err := l.rotateLocked(); err != nil {
		return err
	}
	if err := l.writeLocked(appendRecord(nil, l.size, state)); err != nil {
		return err
	}
	l.appends++
	l.met.appends.Inc()
	if err := l.syncLocked(); err != nil {
		return err
	}
	keep := l.seq
	var live []uint64
	for _, seq := range l.segs {
		if seq >= keep {
			live = append(live, seq)
			continue
		}
		if err := l.opt.FS.Remove(l.segPath(seq)); err != nil {
			// A leftover segment is replay-harmless (see above); keep
			// going so one sticky file cannot wedge compaction.
			live = append(live, seq)
		}
	}
	l.segs = live
	return nil
}

// Appends returns the number of records durably appended this session
// (snapshots included).
func (l *Log) Appends() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Close fsyncs and closes the log. Further appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if l.err == nil {
		err = l.syncLocked()
	}
	l.closed = true
	waiters := l.waiters
	l.waiters = nil
	if l.syncTimer != nil {
		l.syncTimer.Stop()
		l.syncTimer = nil
	}
	l.f.Close()
	l.mu.Unlock()
	for _, ch := range waiters {
		ch <- err
	}
	return err
}

// Kill simulates the process dying with the log open: no final fsync,
// pending group-commit waiters fail, and every later append returns
// ErrKilled. Only synced bytes survive into the next Open — the crash
// half of the fault-injection seam (MemFS.Crash is the disk half).
func (l *Log) Kill() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.err = ErrKilled
	waiters := l.waiters
	l.waiters = nil
	if l.syncTimer != nil {
		l.syncTimer.Stop()
		l.syncTimer = nil
	}
	l.f.Close()
	l.mu.Unlock()
	for _, ch := range waiters {
		ch <- ErrKilled
	}
}
