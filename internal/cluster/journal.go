package cluster

import (
	"encoding/json"
	"log"
	"sync"
	"time"

	"repro/internal/wal"
)

// Journal is the job service's durability layer. It records jobs, not
// points: the manager appends each job's submission (canonical scenario
// text) and its terminal transition (with the finished report text, so
// GET /v1/jobs/{id}/report survives a restart) as one JSON record each
// to a write-ahead log — two appends and two fsyncs per job, however
// many points it renders — and a restarted daemon replays the log and
// re-runs what had not finished.
//
// A resumed job re-plans its points, and any point the persistent
// cache tiers already hold resolves by its content-addressed key. Nor
// are the running transition (recovery re-runs a running job like a
// queued one, and its total comes from the spec), per-point progress or
// event history journaled. Replay skips the task.* records and snapshot
// task fields of logs written when the daemon still distributed points.
//
// A journal append failure is logged once and then the journal goes
// inert: the daemon keeps serving (availability over durability once
// the disk has failed) but the operator is told recovery is no longer
// complete. This is also what lets a crash-test "doomed" instance keep
// running after its log is killed.
type Journal struct {
	log *wal.Log

	mu   sync.Mutex
	dead bool
}

// Journal record kinds. Unknown kinds are skipped on replay, so old
// daemons can read logs written by newer ones and the task.* records of
// older logs are ignored.
const (
	recJobSubmit = "job.submit"
	recJobState  = "job.state"
	recSnapshot  = "snapshot"
)

// journalRecord is the wire form of one transition. Exactly the fields
// its Kind needs are set.
type journalRecord struct {
	Kind string `json:"kind"`

	Job       string    `json:"job,omitempty"`
	Name      string    `json:"name,omitempty"`
	Spec      string    `json:"spec,omitempty"` // canonical scenario text
	State     string    `json:"state,omitempty"`
	Error     string    `json:"error,omitempty"`
	Report    string    `json:"report,omitempty"`
	Done      int       `json:"done,omitempty"`
	Total     int       `json:"total,omitempty"`
	Submitted time.Time `json:"submitted,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`

	// snapshot records carry the full recovered state.
	Snapshot *Recovered `json:"snapshot,omitempty"`
}

// RecoveredJob is one job's state as replayed from the journal.
type RecoveredJob struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	Spec      string    `json:"spec"` // canonical scenario text
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Report    string    `json:"report,omitempty"`
	Done      int       `json:"done,omitempty"`
	Total     int       `json:"total,omitempty"`
	Submitted time.Time `json:"submitted,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// Recovered is the job state a journal replay yields — and, fed back
// through Journal.Snapshot, the compaction payload. Jobs keep log order
// (submission order).
type Recovered struct {
	Jobs []RecoveredJob `json:"jobs,omitempty"`
}

// recoveredState folds journal records into a Recovered.
type recoveredState struct {
	jobs     map[string]*RecoveredJob
	jobOrder []string
}

func (s *recoveredState) apply(r journalRecord) {
	switch r.Kind {
	case recSnapshot:
		// A snapshot is a full state reset; anything replayed before it
		// (pre-compaction stragglers) is superseded.
		*s = recoveredState{jobs: make(map[string]*RecoveredJob)}
		if r.Snapshot == nil {
			return
		}
		for _, j := range r.Snapshot.Jobs {
			jc := j
			s.jobs[j.ID] = &jc
			s.jobOrder = append(s.jobOrder, j.ID)
		}
	case recJobSubmit:
		if r.Job == "" || s.jobs[r.Job] != nil {
			return
		}
		s.jobs[r.Job] = &RecoveredJob{
			ID: r.Job, Name: r.Name, Spec: r.Spec,
			State: StateQueued, Submitted: r.Submitted,
		}
		s.jobOrder = append(s.jobOrder, r.Job)
	case recJobState:
		j := s.jobs[r.Job]
		if j == nil {
			return
		}
		j.State = r.State
		j.Error = r.Error
		j.Report = r.Report
		j.Done, j.Total = r.Done, r.Total
		j.Finished = r.Finished
	}
}

func (s *recoveredState) recovered() *Recovered {
	rec := &Recovered{}
	for _, id := range s.jobOrder {
		rec.Jobs = append(rec.Jobs, *s.jobs[id])
	}
	return rec
}

// OpenJournal opens (or creates) the journal over opt and replays it
// into the job state the caller feeds to Manager.Restore. Malformed
// JSON records are skipped (the WAL's CRC already vouches the bytes
// are what was written; a bad record is a bug, not corruption, and
// must not brick the daemon).
func OpenJournal(opt wal.Options) (*Journal, *Recovered, error) {
	st := &recoveredState{jobs: make(map[string]*RecoveredJob)}
	l, err := wal.Open(opt, func(b []byte) error {
		var r journalRecord
		if err := json.Unmarshal(b, &r); err != nil {
			log.Printf("cluster: skipping undecodable journal record: %v", err)
			return nil
		}
		st.apply(r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &Journal{log: l}, st.recovered(), nil
}

// append journals one record. Nil-safe (a manager without a journal
// is not durable); sticky on failure.
func (jl *Journal) append(r journalRecord) {
	if jl == nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		jl.fail(err)
		return
	}
	if err := jl.log.Append(b); err != nil {
		jl.fail(err)
	}
}

func (jl *Journal) fail(err error) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.dead {
		return
	}
	jl.dead = true
	log.Printf("cluster: journal failed, continuing WITHOUT durability: %v", err)
}

// Snapshot compacts the journal to a single full-state record —
// typically the freshly recovered state at boot, before anything new
// happens, so the log does not grow without bound across restarts.
func (jl *Journal) Snapshot(rec *Recovered) error {
	if jl == nil {
		return nil
	}
	b, err := json.Marshal(journalRecord{Kind: recSnapshot, Snapshot: rec})
	if err != nil {
		return err
	}
	return jl.log.Snapshot(b)
}

// Recovery reports what the open replayed: records applied and torn
// tail bytes truncated. Nil-safe.
func (jl *Journal) Recovery() (records int, truncated int64) {
	if jl == nil {
		return 0, 0
	}
	return jl.log.RecoveredRecords, jl.log.TruncatedBytes
}

// Appends returns the records durably appended this session. Nil-safe.
func (jl *Journal) Appends() int {
	if jl == nil {
		return 0
	}
	return jl.log.Appends()
}

// Close flushes and closes the underlying log. Nil-safe.
func (jl *Journal) Close() error {
	if jl == nil {
		return nil
	}
	return jl.log.Close()
}

// Kill simulates the process dying with the journal open: no final
// sync, and every later append fails (and is swallowed by the sticky
// failure path, so the doomed daemon keeps running in-memory — exactly
// what the crash-restart tests need from the instance they are about
// to abandon). Nil-safe.
func (jl *Journal) Kill() {
	if jl == nil {
		return
	}
	jl.log.Kill()
}
