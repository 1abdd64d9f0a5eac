package boundary

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestQueueOrderAndWatermark(t *testing.T) {
	var got []int64
	var batches []int
	q := NewQueue(4, func(es []Entry) error {
		batches = append(batches, len(es))
		for _, e := range es {
			got = append(got, e.Hash)
		}
		return nil
	})
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(Entry{Hash: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, h := range got {
		if h != int64(i) {
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
	q := NewQueue(4, func(es []Entry) error { return errors.New("must not run") })
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Flushes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueConcurrentEnqueueKeepsAllCalls(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int64]bool)
	q := NewQueue(8, func(es []Entry) error {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range es {
			if seen[e.Hash] {
				return fmt.Errorf("hash %d flushed twice", e.Hash)
			}
			seen[e.Hash] = true
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
				if err := q.Enqueue(Entry{Hash: int64(w*per + i)}); err != nil {
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
