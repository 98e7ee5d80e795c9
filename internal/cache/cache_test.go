package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoSingleFlight: concurrent askers of one key share one computation,
// which every later ask finds stored.
func TestDoSingleFlight(t *testing.T) {
	c := New[int](4)
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	var computed atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, did := c.Do("k", func() (int, bool) {
				calls.Add(1)
				<-release
				return 42, true
			})
			if v != 42 {
				t.Errorf("got %d, want 42", v)
			}
			if did {
				computed.Add(1)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the askers queue behind the leader
	close(release)
	wg.Wait()
	if calls.Load() != 1 || computed.Load() != 1 {
		t.Errorf("fn ran %d times, %d callers computed; want 1, 1", calls.Load(), computed.Load())
	}
	if v, did := c.Do("k", func() (int, bool) { return 0, true }); v != 42 || did {
		t.Errorf("a later ask got %d (computed %t), want the stored 42", v, did)
	}
}

// TestDoUnstoredValueReachesWaiters: a value fn declines to store still
// goes to the callers that waited on it, and the next ask computes anew.
func TestDoUnstoredValueReachesWaiters(t *testing.T) {
	c := New[int](4)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := c.Do("k", func() (int, bool) { close(started); <-release; return 1, false })
		done <- v
	}()
	<-started
	go func() {
		v, _ := c.Do("k", func() (int, bool) { return 2, false })
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if a, b := <-done, <-done; a != 1 || b != 1 {
		t.Errorf("leader and waiter got %d and %d, want 1 and 1", a, b)
	}
	if _, ok := c.Get("k"); ok || c.Len() != 0 {
		t.Error("a value fn declined to store was stored")
	}
}

// TestDoFailedLeader: a leader that panics, or exits its goroutine, stores
// nothing; its panic stays with it, and its waiters compute the value
// themselves instead of hanging.
func TestDoFailedLeader(t *testing.T) {
	for _, how := range []string{"panic", "goexit"} {
		c := New[int](4)
		started, release := make(chan struct{}), make(chan struct{})
		leader := make(chan any)
		go func() {
			defer func() { leader <- recover() }()
			c.Do("k", func() (int, bool) {
				close(started)
				<-release
				if how == "panic" {
					panic("leader failed")
				}
				runtime.Goexit()
				return 0, true
			})
		}()
		<-started
		var wg sync.WaitGroup
		var computed atomic.Int32
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, did := c.Do("k", func() (int, bool) { return 7, true })
				if v != 7 {
					t.Errorf("%s: waiter got %d, want 7", how, v)
				}
				if did {
					computed.Add(1)
				}
			}()
		}
		time.Sleep(10 * time.Millisecond)
		close(release)
		waited := make(chan struct{})
		go func() { wg.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: waiters hang on a failed leader", how)
		}
		if r := <-leader; (how == "panic") != (r != nil) {
			t.Errorf("%s: leader recovered %v", how, r)
		}
		if computed.Load() != 1 {
			t.Errorf("%s: %d waiters computed the value, want one", how, computed.Load())
		}
	}
}

// TestTryDoNeverWaits: TryDo computes only a key that is neither stored
// nor in flight, and Busy reports the one in flight.
func TestTryDoNeverWaits(t *testing.T) {
	c := New[int](4)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		c.Do("k", func() (int, bool) { close(started); <-release; return 1, true })
		close(done)
	}()
	<-started
	if !c.Busy("k") || c.Busy("j") {
		t.Errorf("Busy(k) = %t, Busy(j) = %t while k is computed; want true, false", c.Busy("k"), c.Busy("j"))
	}
	if c.TryDo("k", func() (int, bool) { t.Error("TryDo ran fn for a key in flight"); return 2, true }) {
		t.Error("TryDo reports computing a key in flight")
	}
	close(release)
	<-done
	if c.Busy("k") || c.TryDo("k", func() (int, bool) { return 3, true }) {
		t.Error("TryDo computed a stored key, or k is still busy")
	}
	if !c.TryDo("j", func() (int, bool) { return 4, true }) {
		t.Error("TryDo did not compute a fresh key")
	}
	if v, ok := c.Get("j"); !ok || v != 4 {
		t.Errorf("TryDo stored %d, %t; want 4", v, ok)
	}
}
