package fabric

import "testing"

// TestWallClockMonotonic is the one test that touches the real clock: the
// declared real-time boundary must be nondecreasing from zero.
func TestWallClockMonotonic(t *testing.T) {
	c := WallClock()
	last := c()
	if last < 0 {
		t.Fatalf("first reading %v < 0", last)
	}
	for i := 0; i < 100; i++ {
		now := c()
		if now < last {
			t.Fatalf("clock went backwards: %v then %v", last, now)
		}
		last = now
	}
}
