package sat

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestPoolGrantAndClamp(t *testing.T) {
	p := NewPool(4)
	if p.Total() != 4 || p.Free() != 4 {
		t.Fatalf("fresh pool: total %d free %d", p.Total(), p.Free())
	}
	l, err := p.Acquire(context.Background(), 3)
	if err != nil || l.Slots() != 3 {
		t.Fatalf("Acquire(3) = %d slots, %v", l.Slots(), err)
	}
	// Only one slot left: a wide request waits for its full width
	// instead of being granted narrow.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if l2, err := p.Acquire(ctx, 4); err != context.DeadlineExceeded {
		t.Fatalf("Acquire(4) with 1 free = %v, %v; want it to wait", l2, err)
	}
	if p.Free() != 1 {
		t.Fatalf("free = %d after an abandoned wait, want 1", p.Free())
	}
	l.Release()
	l.Release() // idempotent
	if p.Free() != 4 {
		t.Fatalf("free after releases = %d, want 4", p.Free())
	}

	// Over-asking clamps to the pool total; under-asking means one slot.
	l3, _ := p.Acquire(context.Background(), 99)
	if l3.Slots() != 4 {
		t.Fatalf("Acquire(99) = %d slots, want 4", l3.Slots())
	}
	l3.Release()
	l4, _ := p.Acquire(context.Background(), 0)
	if l4.Slots() != 1 {
		t.Fatalf("Acquire(0) = %d slots, want 1", l4.Slots())
	}
	l4.Release()
}

// TestPoolFIFOBlocking: grants are full-width and FIFO — a wide
// request at the head of the queue is not overtaken by a narrower one
// behind it that would fit in the free slots.
func TestPoolFIFOBlocking(t *testing.T) {
	p := NewPool(2)
	hold, _ := p.Acquire(context.Background(), 1)

	type grant struct {
		id    int
		lease *Lease
	}
	grants := make(chan grant, 2)
	acquire := func(id, want int) {
		g, err := p.Acquire(context.Background(), want)
		if err != nil {
			t.Error(err)
			return
		}
		grants <- grant{id, g}
	}
	go acquire(1, 2)
	// Give the first waiter time to queue before the second arrives, so
	// FIFO order is observable.
	time.Sleep(20 * time.Millisecond)
	go acquire(2, 1)
	time.Sleep(20 * time.Millisecond)
	select {
	case g := <-grants:
		t.Fatalf("waiter %d granted ahead of the wide head request", g.id)
	default:
	}

	hold.Release()
	g1 := <-grants
	if g1.id != 1 || g1.lease.Slots() != 2 {
		t.Fatalf("first grant: waiter %d with %d slots, want waiter 1 with 2", g1.id, g1.lease.Slots())
	}
	select {
	case g := <-grants:
		t.Fatalf("waiter %d granted while the pool is exhausted", g.id)
	case <-time.After(20 * time.Millisecond):
	}
	g1.lease.Release()
	g2 := <-grants
	if g2.id != 2 || g2.lease.Slots() != 1 {
		t.Fatalf("second grant: waiter %d with %d slots, want waiter 2 with 1", g2.id, g2.lease.Slots())
	}
	g2.lease.Release()
	if p.Free() != 2 {
		t.Fatalf("free = %d, want 2", p.Free())
	}
}

func TestPoolAcquireCancel(t *testing.T) {
	p := NewPool(1)
	l, _ := p.Acquire(context.Background(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx, 1)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
	}
	// The abandoned waiter must not absorb the released slot.
	l.Release()
	if p.Free() != 1 {
		t.Fatalf("free = %d after cancel+release, want 1", p.Free())
	}
}

// TestPoolCancelledWaiterMidQueue: cancelling a waiter that is queued
// behind the head must neither leak its FIFO position nor starve the
// waiters behind it — the released slot flows past the dead waiter to
// the next live one.
func TestPoolCancelledWaiterMidQueue(t *testing.T) {
	p := NewPool(1)
	hold, err := p.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aErr := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctxA, 1)
		aErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // A is queued first

	bLease := make(chan *Lease, 1)
	go func() {
		l, err := p.Acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		bLease <- l
	}()
	time.Sleep(20 * time.Millisecond) // B is queued behind A

	cancelA()
	if err := <-aErr; err != context.Canceled {
		t.Fatalf("cancelled mid-queue Acquire = %v, want context.Canceled", err)
	}

	hold.Release()
	select {
	case l := <-bLease:
		l.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("waiter behind a cancelled waiter was starved")
	}
	if p.Free() != 1 {
		t.Fatalf("free = %d, want 1", p.Free())
	}
}

// TestPoolCancelledHeadUnblocksQueue: when a wide head waiter gives
// up, the narrower waiter behind it is granted from the slots that are
// already free, without waiting for another release.
func TestPoolCancelledHeadUnblocksQueue(t *testing.T) {
	p := NewPool(2)
	hold, _ := p.Acquire(context.Background(), 1)
	defer hold.Release()
	ctxA, cancelA := context.WithCancel(context.Background())
	aErr := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctxA, 2)
		aErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // A heads the queue
	bLease := make(chan *Lease, 1)
	go func() {
		l, err := p.Acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
		bLease <- l
	}()
	time.Sleep(20 * time.Millisecond) // B waits behind A
	cancelA()
	if err := <-aErr; err != context.Canceled {
		t.Fatalf("cancelled head Acquire = %v, want context.Canceled", err)
	}
	select {
	case l := <-bLease:
		l.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("waiter behind a cancelled wide head was not granted the free slot")
	}
}

// TestPoolWaiterCancelChurn hammers the grant-races-cancellation window
// (a waiter whose context fires just as release hands it slots must
// return the grant, not leak it). Any leaked slot shows up as a final
// free count below capacity; a stuck waiter shows up as a hang.
func TestPoolWaiterCancelChurn(t *testing.T) {
	p := NewPool(2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if (i+j)%3 != 0 {
					// Deadlines from "already expired" to "fires mid-wait".
					ctx, cancel = context.WithTimeout(ctx, time.Duration(j%5)*50*time.Microsecond)
				}
				l, err := p.Acquire(ctx, 1+j%3)
				cancel()
				if err == nil {
					l.Release()
				} else if err != context.DeadlineExceeded && err != context.Canceled {
					t.Errorf("Acquire: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	if p.Free() != 2 {
		t.Fatalf("free = %d after cancel churn, want 2 (slots leaked to cancelled waiters)", p.Free())
	}
	// And the pool still serves: a fresh acquirer is not starved.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l, err := p.Acquire(ctx, 2)
	if err != nil {
		t.Fatalf("pool unusable after cancel churn: %v", err)
	}
	if l.Slots() != 2 {
		t.Fatalf("got %d slots from an idle 2-slot pool", l.Slots())
	}
	l.Release()
}

func TestPoolConcurrentChurn(t *testing.T) {
	p := NewPool(3)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(want int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l, err := p.Acquire(context.Background(), want)
				if err != nil {
					t.Error(err)
					return
				}
				if l.Slots() != min(want, 3) {
					t.Errorf("lease of %d slots for a request of %d from a 3-slot pool", l.Slots(), want)
				}
				l.Release()
			}
		}(1 + i%4)
	}
	wg.Wait()
	if p.Free() != 3 {
		t.Fatalf("free = %d after churn, want 3", p.Free())
	}
}

func TestLeasePortfolioClamped(t *testing.T) {
	p := NewPool(2)
	l, _ := p.Acquire(context.Background(), 2)
	defer l.Release()
	if w := l.NewPortfolio(PortfolioOptions{Workers: 8}).Workers(); w != 2 {
		t.Fatalf("lease portfolio has %d workers, want 2", w)
	}
	if w := l.NewPortfolio(PortfolioOptions{}).Workers(); w != 2 {
		t.Fatalf("default lease portfolio has %d workers, want 2", w)
	}
	if w := l.NewPortfolio(PortfolioOptions{Workers: 1}).Workers(); w != 1 {
		t.Fatalf("narrow request widened to %d workers", w)
	}
}
