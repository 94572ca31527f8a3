package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheSingleflight: N concurrent Do calls for one key run the
// compute function exactly once; one caller reports a miss and the rest
// report coalesced, all with byte-identical data.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8)
	const n = 16
	var computes atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	outcomes := make([]CacheOutcome, n)
	payloads := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, out, err := c.Do(context.Background(), "k", func() (json.RawMessage, error) {
				computes.Add(1)
				<-gate // hold the computation until all callers have arrived
				return json.RawMessage(`{"v":42}`), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i], payloads[i] = out, string(data)
		}(i)
	}
	// Wait until the leader is inside compute, then let everyone pile up
	// and release.
	for computes.Load() == 0 {
	}
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", got)
	}
	miss, coalesced := 0, 0
	for i := 0; i < n; i++ {
		switch outcomes[i] {
		case CacheMiss:
			miss++
		case CacheCoalesced, CacheHit:
			coalesced++
		default:
			t.Fatalf("caller %d got outcome %q", i, outcomes[i])
		}
		if payloads[i] != `{"v":42}` {
			t.Fatalf("caller %d payload %q", i, payloads[i])
		}
	}
	if miss != 1 {
		t.Fatalf("%d callers computed, want exactly 1", miss)
	}
}

// TestCacheHitByteIdentical: a later Do for a cached key reports a hit
// and returns the stored bytes verbatim — the property the daemon needs
// for "repeated identical job returns an identical payload, faster".
func TestCacheHitByteIdentical(t *testing.T) {
	c := NewCache(8)
	cold := json.RawMessage(`{"equivalent":true,"stats":{"nodes":12}}`)
	d1, out1, err := c.Do(context.Background(), "job", func() (json.RawMessage, error) { return cold, nil })
	if err != nil || out1 != CacheMiss {
		t.Fatalf("cold run: outcome %q err %v", out1, err)
	}
	d2, out2, err := c.Do(context.Background(), "job", func() (json.RawMessage, error) {
		t.Fatal("cache hit must not recompute")
		return nil, nil
	})
	if err != nil || out2 != CacheHit {
		t.Fatalf("warm run: outcome %q err %v", out2, err)
	}
	if string(d1) != string(d2) {
		t.Fatalf("hit differs from cold run:\n%s\n%s", d1, d2)
	}
}

// TestCacheLeaderFailurePromotes: a failed leader does not poison the
// key; a waiting caller is promoted and computes, and errors are never
// cached.
func TestCacheLeaderFailurePromotes(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("transient solver failure")
	var calls atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(context.Background(), "k", func() (json.RawMessage, error) {
			calls.Add(1)
			<-gate
			return nil, boom
		})
	}()
	for calls.Load() == 0 {
	}
	wg.Add(1)
	var waiterData json.RawMessage
	var waiterOut CacheOutcome
	var waiterErr error
	go func() {
		defer wg.Done()
		waiterData, waiterOut, waiterErr = c.Do(context.Background(), "k", func() (json.RawMessage, error) {
			calls.Add(1)
			return json.RawMessage(`"recovered"`), nil
		})
	}()
	close(gate)
	wg.Wait()
	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader error = %v, want %v", leaderErr, boom)
	}
	if waiterErr != nil || string(waiterData) != `"recovered"` {
		t.Fatalf("promoted waiter: %q, %v", waiterData, waiterErr)
	}
	if waiterOut != CacheMiss && waiterOut != CacheCoalesced {
		t.Fatalf("promoted waiter outcome %q", waiterOut)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2 (leader + promoted waiter)", calls.Load())
	}
	// The recovery is cached; the error is not.
	d, out, err := c.Do(context.Background(), "k", func() (json.RawMessage, error) {
		t.Fatal("recovered result must be served from cache")
		return nil, nil
	})
	if err != nil || out != CacheHit || string(d) != `"recovered"` {
		t.Fatalf("after recovery: %q, %q, %v", d, out, err)
	}
}

// TestCacheEvictionBound: completed entries are evicted FIFO beyond max.
func TestCacheEvictionBound(t *testing.T) {
	c := NewCache(4)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		_, _, err := c.Do(context.Background(), key, func() (json.RawMessage, error) {
			return json.RawMessage(fmt.Sprintf("%d", i)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	// Oldest evicted: k0 recomputes; newest kept: k9 hits.
	var recomputed bool
	_, out, _ := c.Do(context.Background(), "k0", func() (json.RawMessage, error) {
		recomputed = true
		return json.RawMessage(`"again"`), nil
	})
	if !recomputed || out != CacheMiss {
		t.Fatalf("k0 should have been evicted (outcome %q)", out)
	}
	_, out, _ = c.Do(context.Background(), "k9", func() (json.RawMessage, error) {
		t.Fatal("k9 should still be cached")
		return nil, nil
	})
	if out != CacheHit {
		t.Fatalf("k9 outcome %q, want hit", out)
	}
}

// TestCacheWaitCancel: a caller waiting on a leader honors its own
// context without cancelling the leader.
func TestCacheWaitCancel(t *testing.T) {
	c := NewCache(8)
	var started atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.Do(context.Background(), "k", func() (json.RawMessage, error) {
			started.Add(1)
			<-gate
			return json.RawMessage(`1`), nil
		})
	}()
	for started.Load() == 0 {
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() (json.RawMessage, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}
	close(gate)
	wg.Wait()
	// Leader completed despite the waiter bailing.
	_, out, err := c.Do(context.Background(), "k", func() (json.RawMessage, error) {
		t.Fatal("leader result must be cached")
		return nil, nil
	})
	if err != nil || out != CacheHit {
		t.Fatalf("after leader completion: %q, %v", out, err)
	}
}
