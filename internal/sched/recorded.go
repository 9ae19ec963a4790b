package sched

import "repro/internal/task"

// Recorded releases tasks in a previously recorded dispatch (pop) order,
// pinning the scheduler's decisions so a replayed run varies placement
// alone. The recorded order may contain a task more than once: a popped
// task that blocked on an in-flight migration was re-queued and popped
// again, and each pop was a separate recorded decision.
//
// A replay under a different machine or policy diverges from the
// recording in exactly two ways, both handled without deadlock:
//
//   - A task that blocked in the recording may start at its first pop in
//     the replay, leaving later recorded occurrences stale. A stale head
//     occurrence (its task already started) is skipped. The skip is safe
//     because a queued task is never one that started: releasing it can
//     only be pended, never lost.
//   - A task may block in the replay more often than it did in the
//     recording, so it is re-queued with no recorded occurrence left.
//     Such pushes overflow into a FIFO served whenever the recorded
//     order has no releasable head, preserving progress.
//
// Under the same machine and policy neither case occurs and the pop
// sequence reproduces the recording exactly.
type Recorded struct {
	order   []task.TaskID
	cursor  int
	occLeft []int32      // per task ID, its recorded occurrences not yet consumed
	ready   []*task.Task // per task ID, the task when queued for its next occurrence
	nReady  int          // the non-nil entries of ready
	started func(task.TaskID) bool
	over    []*task.Task
}

// NewRecorded returns a queue releasing a graph's tasks in the given pop
// order. tasks is the graph's task count, and every ID in order must lie
// in [0, tasks). started reports whether a task has begun execution in
// the current run; it distinguishes stale recorded occurrences from
// not-yet-ready tasks.
func NewRecorded(order []task.TaskID, tasks int, started func(task.TaskID) bool) *Recorded {
	occ := make([]int32, tasks)
	for _, id := range order {
		occ[id]++
	}
	if started == nil {
		started = func(task.TaskID) bool { return false }
	}
	return &Recorded{
		order:   order,
		occLeft: occ,
		ready:   make([]*task.Task, tasks),
		started: started,
	}
}

// Push makes a task available for its next recorded occurrence, or
// queues it in the overflow FIFO when the recording has none left.
func (q *Recorded) Push(t *task.Task, worker int) {
	if id := int(t.ID); uint(id) < uint(len(q.occLeft)) && q.occLeft[id] > 0 {
		if q.ready[id] == nil {
			q.nReady++
		}
		q.ready[id] = t
		return
	}
	q.over = append(q.over, t)
}

// Pop releases the next recorded task if it is available, skipping
// occurrences consumed by an earlier (divergent) start; with no
// releasable recorded head it serves the overflow FIFO.
func (q *Recorded) Pop(worker int) (*task.Task, bool) {
	for q.cursor < len(q.order) {
		id := q.order[q.cursor]
		if t := q.ready[id]; t != nil {
			q.ready[id] = nil
			q.nReady--
			q.cursor++
			q.occLeft[id]--
			return t, true
		}
		if q.started(id) {
			// Stale occurrence: this task started at an earlier pop.
			q.cursor++
			q.occLeft[id]--
			continue
		}
		// The recorded next task is not ready yet: hold the position.
		break
	}
	if len(q.over) > 0 {
		t := q.over[0]
		q.over = q.over[1:]
		return t, true
	}
	return nil, false
}

// Len returns the number of queued tasks.
func (q *Recorded) Len() int { return q.nReady + len(q.over) }
