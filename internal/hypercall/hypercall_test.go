package hypercall

import (
	"sync"
	"testing"
	"time"
)

func TestCostAndCounters(t *testing.T) {
	c := NewChannel()
	l0 := c.Cost(0)
	if l0 != DefaultCallCost {
		t.Fatalf("zero-page cost = %v, want %v", l0, DefaultCallCost)
	}
	l1 := c.Cost(1)
	if l1 != DefaultCallCost+DefaultPageCopyCost {
		t.Fatalf("one-page cost = %v", l1)
	}
	if c.Calls() != 2 || c.PagesCopied() != 1 {
		t.Fatalf("counters = %d calls / %d pages", c.Calls(), c.PagesCopied())
	}
}

func TestCustomCosts(t *testing.T) {
	c := NewChannel()
	c.callCost, c.copyCost = time.Microsecond, 2*time.Microsecond
	if got := c.Cost(3); got != 7*time.Microsecond {
		t.Fatalf("Cost(3) = %v, want 7µs", got)
	}
}

// TestChannelCostConcurrent drives Cost from many goroutines at once, the
// shape of PR 1's concurrent guests. With the pre-atomic counters this
// test fails under -race (and typically also loses increments).
func TestChannelCostConcurrent(t *testing.T) {
	c := NewChannel()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Cost(1)
			}
		}()
	}
	wg.Wait()
	if c.Calls() != workers*per || c.PagesCopied() != workers*per {
		t.Fatalf("counters = %d calls / %d pages, want %d each",
			c.Calls(), c.PagesCopied(), workers*per)
	}
}
