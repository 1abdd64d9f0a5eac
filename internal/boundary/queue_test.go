package boundary

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestQueueOrderAndWatermark(t *testing.T) {
	var got []int
	var batches []int
	q := NewQueue(4, func(es []Entry, _ time.Duration) error {
		batches = append(batches, len(es))
		for _, e := range es {
			got = append(got, e.ID)
		}
		return nil
	})
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(Entry{ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, h := range got {
		if h != i {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if len(batches) != 3 || batches[0] != 4 || batches[1] != 4 || batches[2] != 2 {
		t.Fatalf("batches = %v, want [4 4 2]", batches)
	}
	if st := q.Stats(); st.Flushes != 3 || st.BatchedCalls != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after flush", q.Len())
	}
}

func TestQueueFlushEmptyIsNoop(t *testing.T) {
	q := NewQueue(4, func(es []Entry, _ time.Duration) error { return errors.New("must not run") })
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Flushes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueConcurrentEnqueueKeepsAllCalls(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]bool)
	q := NewQueue(8, func(es []Entry, _ time.Duration) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range es {
			if seen[e.ID] {
				return fmt.Errorf("call %d flushed twice", e.ID)
			}
			seen[e.ID] = true
		}
		return nil
	})
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := q.Enqueue(Entry{ID: w*per + i}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers*per {
		t.Fatalf("flushed %d calls, want %d", len(seen), workers*per)
	}
}
