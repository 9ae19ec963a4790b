package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestLIFO: Get hands back values in the reverse order of their Puts,
// and reports false once the list is empty.
func TestLIFO(t *testing.T) {
	l := New[int](3, 0)
	for v := 1; v <= 3; v++ {
		if !l.Put(v, 0) {
			t.Fatalf("Put(%d) into a list of 3 with %d values refused it", v, v-1)
		}
	}
	for want := 3; want >= 1; want-- {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
	if v, ok := l.Get(); ok {
		t.Fatalf("Get on an empty list = %d, true", v)
	}
}

// TestCountCap: a full list refuses a Put until a Get makes room, and
// keeps the values it already holds.
func TestCountCap(t *testing.T) {
	l := New[int](2, 0)
	l.Put(1, 0)
	l.Put(2, 0)
	if l.Put(3, 0) {
		t.Fatal("a list of 2 kept a third value")
	}
	if v, _ := l.Get(); v != 2 {
		t.Fatalf("Get after a refused Put = %d, want 2", v)
	}
	if !l.Put(3, 0) {
		t.Fatal("a Put after a Get was refused")
	}
	if n := New[int](0, 0); n.Put(1, 0) {
		t.Fatal("a list of 0 kept a value")
	}
}

// TestByteBudget: Put keeps a value of exactly keep bytes and refuses
// one past it.
func TestByteBudget(t *testing.T) {
	l := New[string](4, 100)
	if !l.Put("fits", 100) {
		t.Fatal("a value of keep bytes was refused")
	}
	if l.Put("over", 101) {
		t.Fatal("a value past keep bytes was kept")
	}
	if v, _ := l.Get(); v != "fits" {
		t.Fatalf("Get = %q, want the value that fit", v)
	}
	if _, ok := l.Get(); ok {
		t.Fatal("the list held more than the value that fit")
	}
}

// TestSurvivesGC: garbage collections leave a kept value in place, so
// the next Get hands it back with its room.
func TestSurvivesGC(t *testing.T) {
	l := New[*[]byte](1, 1<<20)
	b := make([]byte, 0, 40<<10)
	l.Put(&b, cap(b))
	runtime.GC()
	runtime.GC()
	if got, ok := l.Get(); !ok || got != &b || cap(*got) != 40<<10 {
		t.Fatalf("Get after two collections: ok %v, same %v; want the kept buffer", ok, got == &b)
	}
}

// TestConcurrentHandsOutOnce: goroutines that Get and Put at once never
// hold one value together. Each value is a counter that its holder
// raises while holding it; a second holder would see it raised. CI runs
// it under -race.
func TestConcurrentHandsOutOnce(t *testing.T) {
	const workers, rounds, values = 8, 2000, 4
	l := New[*int](values, 0)
	for i := 0; i < values; i++ {
		l.Put(new(int), 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, ok := l.Get()
				if !ok {
					v = new(int)
				}
				if *v != 0 {
					t.Errorf("Get handed out a value another goroutine holds")
					return
				}
				*v = 1
				runtime.Gosched()
				*v = 0
				l.Put(v, 0)
			}
		}()
	}
	wg.Wait()
}
