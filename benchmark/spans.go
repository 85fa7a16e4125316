package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's exported functions. Parent 0 means a root.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// spans keeps every span in memory until the run ends. A nil *spans
// records nothing, which is how untraced runs call the same code.
type spans struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	list     []span
}

func newSpans(workload string) *spans { return &spans{t0: time.Now(), workload: workload} }

func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := int64(time.Since(s.t0))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Workload: s.workload, StartNs: now})
	return len(s.list)
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	now := int64(time.Since(s.t0))
	s.mu.Lock()
	s.list[id-1].EndNs = now
	s.mu.Unlock()
}

// count attaches a count taken at the same boundary as the span.
func (s *spans) count(id int, key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.list[id-1].Counts == nil {
		s.list[id-1].Counts = map[string]float64{}
	}
	s.list[id-1].Counts[key] = v
	s.mu.Unlock()
}

// add records an already-timed span, for sampled calls on hot paths.
func (s *spans) add(name string, parent int, start, end time.Time) {
	s.mu.Lock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Workload: s.workload,
		StartNs: int64(start.Sub(s.t0)), EndNs: int64(end.Sub(s.t0))})
	s.mu.Unlock()
}

func (s *spans) write(path string) error {
	data, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
