package sat

import (
	"runtime"
	"testing"
)

func TestNewPoolTotal(t *testing.T) {
	if got := NewPool(3).Total(); got != 3 {
		t.Fatalf("NewPool(3).Total() = %d, want 3", got)
	}
	for _, slots := range []int{0, -1} {
		if got, want := NewPool(slots).Total(), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("NewPool(%d).Total() = %d, want GOMAXPROCS = %d", slots, got, want)
		}
	}
}
