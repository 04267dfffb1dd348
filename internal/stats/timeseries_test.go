package stats

import (
	"strings"
	"testing"
	"time"
)

func TestTimeSeriesAddOrdering(t *testing.T) {
	s := NewTimeSeries("x")
	if err := s.Add(time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(time.Second, 2); err != nil {
		t.Fatal(err) // equal timestamps allowed
	}
	if err := s.Add(500*time.Millisecond, 3); err == nil {
		t.Error("out-of-order sample accepted")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestTimeSeriesAt(t *testing.T) {
	s := NewTimeSeries("x")
	s.Add(10*time.Second, 1)
	s.Add(20*time.Second, 2)
	if got := s.At(5 * time.Second); got != 0 {
		t.Errorf("At before first = %g", got)
	}
	if got := s.At(10 * time.Second); got != 1 {
		t.Errorf("At(10s) = %g", got)
	}
	if got := s.At(15 * time.Second); got != 1 {
		t.Errorf("At(15s) = %g (step)", got)
	}
	if got := s.At(25 * time.Second); got != 2 {
		t.Errorf("At(25s) = %g", got)
	}
}

func TestTimeSeriesMaxAndTable(t *testing.T) {
	s := NewTimeSeries("throughput")
	if s.Max() != 0 {
		t.Error("empty max != 0")
	}
	s.Add(0, 3)
	s.Add(time.Second, 7)
	s.Add(2*time.Second, 5)
	if s.Max() != 7 {
		t.Errorf("max = %g", s.Max())
	}
	tab := s.Table()
	if !strings.Contains(tab, "throughput") || !strings.Contains(tab, "7.000") {
		t.Errorf("table rendering:\n%s", tab)
	}
	if s.Len() != 3 {
		t.Errorf("%d points, want 3", s.Len())
	}
}
