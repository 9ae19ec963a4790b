package sched

import (
	"testing"

	"repro/internal/task"
)

func TestRecordedReleasesInOrder(t *testing.T) {
	ts := mk(3)
	q := NewRecorded([]task.TaskID{2, 0, 1}, len(ts), nil)
	for _, tk := range ts {
		q.Push(tk, 0)
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	got := drain(q, 0)
	want := []task.TaskID{2, 0, 1}
	if len(got) != 3 {
		t.Fatalf("drained %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRecordedHoldsForUnreadyHead(t *testing.T) {
	ts := mk(2)
	q := NewRecorded([]task.TaskID{0, 1}, len(ts), nil)
	q.Push(ts[1], 0) // task 1 ready, but the recording pops 0 first
	if _, ok := q.Pop(0); ok {
		t.Fatal("released task 1 ahead of its recorded turn")
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Push(ts[0], 0)
	got := drain(q, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("order = %v", got)
	}
}

// TestRecordedDuplicateOccurrences covers the pop→block→re-push→pop
// shape: the same task appears twice in the recorded order, with another
// task dispatched in between.
func TestRecordedDuplicateOccurrences(t *testing.T) {
	ts := mk(2)
	q := NewRecorded([]task.TaskID{0, 1, 0}, len(ts), nil)
	q.Push(ts[0], 0)
	q.Push(ts[1], 0)
	tk, ok := q.Pop(0)
	if !ok || tk.ID != 0 {
		t.Fatalf("first pop = %v, %v", tk, ok)
	}
	// Task 0 blocked and is re-queued; the recording releases 1 next.
	q.Push(ts[0], 0)
	got := drain(q, 0)
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("order after re-push = %v", got)
	}
}

// TestRecordedSkipsStaleOccurrences covers a divergent replay in which a
// task that blocked during recording (two occurrences) starts at its
// first pop: the second occurrence must be skipped, not waited on.
func TestRecordedSkipsStaleOccurrences(t *testing.T) {
	ts := mk(2)
	startedSet := map[task.TaskID]bool{}
	q := NewRecorded([]task.TaskID{0, 1, 0}, len(ts), func(id task.TaskID) bool { return startedSet[id] })
	q.Push(ts[0], 0)
	tk, _ := q.Pop(0)
	startedSet[tk.ID] = true // task 0 starts immediately this time
	q.Push(ts[1], 0)
	got := drain(q, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("order = %v, want just task 1", got)
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after drain", q.Len())
	}
}

// TestRecordedOverflow covers pushes the recording never saw: they are
// served FIFO once the recorded order has no releasable head, so a
// divergent replay keeps making progress.
func TestRecordedOverflow(t *testing.T) {
	ts := mk(4)
	q := NewRecorded([]task.TaskID{0}, len(ts), nil)
	q.Push(ts[2], 0) // no recorded occurrence
	q.Push(ts[3], 0) // no recorded occurrence
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	// Head (task 0) is unready and unstarted: overflow is served FIFO.
	tk, ok := q.Pop(0)
	if !ok || tk.ID != 2 {
		t.Fatalf("pop = %v, %v, want overflow task 2", tk, ok)
	}
	// Recorded head becomes ready: it outranks the remaining overflow.
	q.Push(ts[0], 0)
	got := drain(q, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("order = %v, want [0 3]", got)
	}
}

// TestRecordedBlockedRepushBeyondRecording covers a task re-queued more
// times than it blocked in the recording: its extra push lands in the
// overflow and is still released.
func TestRecordedBlockedRepushBeyondRecording(t *testing.T) {
	ts := mk(1)
	q := NewRecorded([]task.TaskID{0}, len(ts), nil)
	q.Push(ts[0], 0)
	if tk, ok := q.Pop(0); !ok || tk.ID != 0 {
		t.Fatalf("pop = %v, %v", tk, ok)
	}
	// Blocks in the replay though it did not in the recording.
	q.Push(ts[0], 0)
	if tk, ok := q.Pop(0); !ok || tk.ID != 0 {
		t.Fatalf("overflow re-release = %v, %v", tk, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
}
