package cluster

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/wal"
)

// Journal is the fabric's durability layer: every job and task state
// transition the coordinator and manager make is appended as one JSON
// record to a shared write-ahead log, so a restarted daemon replays
// the log and picks up where the dead one stopped. One journal backs
// both halves — a single fsync stream keeps the job and task histories
// mutually ordered (task ids embed job ids).
//
// What is persisted: job submissions (canonical scenario text), terminal
// job transitions (including the finished report text, so
// GET /v1/jobs/{id}/report survives a restart), task batches, and
// every claim/renew/complete/fail/requeue — so a job costs two appends
// and two fsyncs of its own. What is not: the running transition
// (recovery re-runs a running job exactly like a queued one, and its
// total comes from the spec; replay still accepts running records
// from older logs), worker registrations (ephemeral — workers
// re-register on reconnect and recovered leases expire on the usual
// TTL clock), per-point progress of running jobs (a resumed job
// re-renders; content-addressed caches make the replay cheap), and
// job event history.
//
// A journal append failure is logged once and then the journal goes
// inert: the fabric keeps serving (availability over durability once
// the disk has failed) but the operator is told recovery is no longer
// complete. This is also what lets a crash-test "doomed" instance keep
// running after its log is killed.
type Journal struct {
	log *wal.Log

	mu   sync.Mutex
	dead bool
}

// Journal record kinds. Unknown kinds are skipped on replay so old
// daemons can read logs written by newer ones.
const (
	recJobSubmit   = "job.submit"
	recJobState    = "job.state"
	recTaskAdd     = "task.add"
	recTaskClaim   = "task.claim"
	recTaskRenew   = "task.renew"
	recTaskDone    = "task.done"
	recTaskFail    = "task.fail"
	recTaskRequeue = "task.requeue"
	recSnapshot    = "snapshot"
)

// journalRecord is the wire form of one transition. Exactly the fields
// its Kind needs are set.
type journalRecord struct {
	Kind string `json:"kind"`

	// job.* records.
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

	// task.* records. Tasks batches one RunTasks call into one record
	// (one fsync per batch, not per task).
	Tasks    []Task `json:"tasks,omitempty"`
	TaskID   string `json:"task_id,omitempty"`
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

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

// RecoveredTask is one task's state as replayed from the journal.
type RecoveredTask struct {
	Task     Task   `json:"task"`
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Recovered is the fabric state a journal replay yields — and, fed
// back through Journal.Snapshot, the compaction payload. Jobs and
// tasks keep log order (submission order).
type Recovered struct {
	Jobs  []RecoveredJob  `json:"jobs,omitempty"`
	Tasks []RecoveredTask `json:"tasks,omitempty"`
	// MaxWorker is the highest worker ordinal ever granted, so a
	// restarted coordinator never reissues a live zombie's id.
	MaxWorker int `json:"max_worker,omitempty"`
}

// recoveredState folds journal records into a Recovered.
type recoveredState struct {
	jobs      map[string]*RecoveredJob
	jobOrder  []string
	tasks     map[string]*RecoveredTask
	taskOrder []string
	maxWorker int
}

func newRecoveredState() *recoveredState {
	return &recoveredState{
		jobs:  make(map[string]*RecoveredJob),
		tasks: make(map[string]*RecoveredTask),
	}
}

func (s *recoveredState) apply(r journalRecord) {
	switch r.Kind {
	case recSnapshot:
		// A snapshot is a full state reset; anything replayed before it
		// (pre-compaction stragglers) is superseded.
		*s = *newRecoveredState()
		if r.Snapshot == nil {
			return
		}
		for _, j := range r.Snapshot.Jobs {
			jc := j
			s.jobs[j.ID] = &jc
			s.jobOrder = append(s.jobOrder, j.ID)
		}
		for _, t := range r.Snapshot.Tasks {
			tc := t
			s.tasks[t.Task.ID] = &tc
			s.taskOrder = append(s.taskOrder, t.Task.ID)
		}
		s.maxWorker = r.Snapshot.MaxWorker
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
	case recTaskAdd:
		for _, t := range r.Tasks {
			if t.ID == "" || s.tasks[t.ID] != nil {
				continue
			}
			s.tasks[t.ID] = &RecoveredTask{Task: t, State: StateQueued}
			s.taskOrder = append(s.taskOrder, t.ID)
		}
	case recTaskClaim:
		if t := s.tasks[r.TaskID]; t != nil {
			t.State = StateLeased
			t.Worker = r.Worker
			t.Attempts = r.Attempts
		}
		var n int
		if _, err := fmt.Sscanf(r.Worker, "w%d", &n); err == nil && n > s.maxWorker {
			s.maxWorker = n
		}
	case recTaskRenew:
		// Liveness only; replayed leases are re-armed wholesale.
	case recTaskDone:
		if t := s.tasks[r.TaskID]; t != nil {
			t.State = StateDone
			t.Worker = ""
			t.Error = ""
		}
	case recTaskFail:
		if t := s.tasks[r.TaskID]; t != nil {
			t.State = StateFailed
			t.Worker = ""
			t.Error = r.Error
			if r.Attempts > 0 {
				t.Attempts = r.Attempts
			}
		}
	case recTaskRequeue:
		if t := s.tasks[r.TaskID]; t != nil {
			t.State = StateQueued
			t.Worker = ""
			t.Attempts = r.Attempts
		}
	}
}

func (s *recoveredState) recovered() *Recovered {
	rec := &Recovered{MaxWorker: s.maxWorker}
	for _, id := range s.jobOrder {
		rec.Jobs = append(rec.Jobs, *s.jobs[id])
	}
	for _, id := range s.taskOrder {
		rec.Tasks = append(rec.Tasks, *s.tasks[id])
	}
	return rec
}

// OpenJournal opens (or creates) the journal over opt and replays it
// into the fabric state the caller feeds to Coordinator.Restore and
// Manager.Restore. Malformed JSON records are skipped (the WAL's CRC
// already vouches the bytes are what was written; a bad record is a
// bug, not corruption, and must not brick the daemon).
func OpenJournal(opt wal.Options) (*Journal, *Recovered, error) {
	st := newRecoveredState()
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

// append journals one record. Nil-safe (an unjournaled fabric is the
// standalone mode); sticky on failure.
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
// failure path, so the doomed fabric keeps running in-memory — exactly
// what the crash-restart tests need from the instance they are about
// to abandon). Nil-safe.
func (jl *Journal) Kill() {
	if jl == nil {
		return
	}
	jl.log.Kill()
}
