package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := New(3)
	if p.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", p.Workers())
	}
	var cur, peak atomic.Int64
	err := p.Map(context.Background(), 20, func(int) error {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Fatalf("observed %d concurrent tasks, bound is 3", peak.Load())
	}
}

func TestPoolDoHonoursContextWhileQueued(t *testing.T) {
	p := New(1)
	release := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func() {
		close(started)
		<-release
	})
	<-started
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := p.Do(ctx, func() { t.Error("fn ran despite expired context") })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPoolMapFirstErrorWins(t *testing.T) {
	p := New(2)
	boom := errors.New("boom")
	var ran atomic.Int64
	err := p.Map(context.Background(), 100, func(i int) error {
		ran.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() >= 100 {
		t.Fatal("error did not short-circuit remaining work")
	}
}

func TestPoolMapEmpty(t *testing.T) {
	if err := New(0).Map(context.Background(), 0, func(int) error {
		t.Error("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
