package burst

// Parks reports how many times the consumer has blocked on an empty queue
// after polling its window out.
func (q *Queue) Parks() int64 { return q.parks.Load() }
