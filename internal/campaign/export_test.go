package campaign

// Len returns the total number of pending jobs across all tenants.
func (q *Queue) Len() int {
	n := 0
	for _, t := range q.tenants {
		n += len(t.jobs)
	}
	return n
}

// InFlight returns a tenant's current in-flight lease count.
func (q *Queue) InFlight(tenant string) int {
	if t, ok := q.tenants[tenant]; ok {
		return t.inflight
	}
	return 0
}
