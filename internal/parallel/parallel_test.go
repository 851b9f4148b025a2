package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 1000
		var hits [n]int32
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachParallelism(t *testing.T) {
	// With 4 workers at least 2 calls must be active at once. Each call
	// blocks until a second call is active (or a timeout fires), so the
	// overlap does not depend on CPU count or scheduling luck; a serial
	// ForEach waits out the timeout once and reports peak=1.
	var active, peak int32
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	timer := time.AfterFunc(5*time.Second, open)
	defer timer.Stop()
	ForEach(64, 4, func(int) {
		a := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if a <= p || atomic.CompareAndSwapInt32(&peak, p, a) {
				break
			}
		}
		if a >= 2 {
			open()
		}
		<-release
		atomic.AddInt32(&active, -1)
	})
	if peak < 2 {
		t.Fatalf("no overlap observed (peak=%d); ForEach ran serially", peak)
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	var g Group
	sentinel := errors.New("boom")
	for i := 0; i < 10; i++ {
		i := i
		g.Go(func() error {
			if i == 3 {
				return sentinel
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("Wait() = %v, want sentinel", err)
	}
}

func TestGroupNoError(t *testing.T) {
	var g Group
	for i := 0; i < 5; i++ {
		g.Go(func() error { return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait() = %v", err)
	}
}

func TestForEachChunkedCoversAllIndices(t *testing.T) {
	for _, tc := range []struct{ n, workers, chunk int }{
		{1000, 4, 0}, {1000, 4, 7}, {5, 8, 2}, {1, 1, 0}, {0, 4, 16}, {1000, 1, 64},
	} {
		var hits sync.Map
		var count atomic.Int64
		ForEachChunked(tc.n, tc.workers, tc.chunk, func(i int) {
			if _, dup := hits.LoadOrStore(i, true); dup {
				t.Errorf("n=%d w=%d c=%d: index %d visited twice", tc.n, tc.workers, tc.chunk, i)
			}
			count.Add(1)
		})
		if int(count.Load()) != tc.n {
			t.Fatalf("n=%d w=%d c=%d: visited %d indices", tc.n, tc.workers, tc.chunk, count.Load())
		}
	}
}

func BenchmarkForEachCheapBody(b *testing.B) {
	var sink atomic.Int64
	b.Run("ForEach", func(b *testing.B) {
		ForEach(b.N, 8, func(i int) { sink.Add(1) })
	})
	b.Run("Chunked", func(b *testing.B) {
		ForEachChunked(b.N, 8, 1024, func(i int) { sink.Add(1) })
	})
}

func TestMapOrder(t *testing.T) {
	out := Map(100, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
