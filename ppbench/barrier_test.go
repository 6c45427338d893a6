package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestBarrierStopsTogether checks that every party passes the same number
// of barriers and that they all stop at the same one.
func TestBarrierStopsTogether(t *testing.T) {
	const parties = 3
	b := newBarrier(context.Background(), parties, time.Now().Add(30*time.Millisecond))
	passed := make([]int, parties)
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for b.wait() {
				passed[i]++
				time.Sleep(time.Duration(i) * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < parties; i++ {
		if passed[i] != passed[0] {
			t.Fatalf("parties passed %v barriers", passed)
		}
	}
	if passed[0] == 0 {
		t.Fatal("no barrier was passed before the deadline")
	}
}

func TestBarrierCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := newBarrier(ctx, 1, time.Now().Add(time.Hour))
	if b.wait() {
		t.Fatal("a cancelled run went on")
	}
}
