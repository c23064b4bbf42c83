package campaign

import "sort"

// TenantJob is one entry on the fleet queue: an expanded campaign job owned
// by a tenant's campaign submission. The cache identity of the job stays
// Params.Key() — tenants deliberately share the content-addressed result
// cache, so identical sweep points are simulated once fleet-wide — while the
// queue identity (who gets charged, who gets scheduled, which campaign the
// outcome lands in) is the (Tenant, CampaignID, Job.Index) triple.
type TenantJob struct {
	Tenant     string `json:"tenant"`
	CampaignID string `json:"campaign_id"`
	// Priority orders a tenant's own backlog (higher first); it never
	// overrides cross-tenant fairness.
	Priority int `json:"priority,omitempty"`
	// Seq is the fleet-wide admission order, the deterministic tie-break
	// inside one priority band. Re-queued jobs keep their original Seq, so
	// a job bounced off a dead worker goes back near the front of its
	// tenant's line instead of behind newly submitted work.
	Seq uint64 `json:"seq"`
	Job Job    `json:"job"`
}

// Queue is the fleet's tenant-aware pending-job store and scheduler: each
// tenant holds a priority-ordered backlog, and Next picks across tenants by
// deficit round-robin under per-tenant concurrency quotas.
//
// Scheduling discipline: jobs cost one quantum each, so a tenant's account
// is the number of jobs it has been served, and its deficit is how far that
// trails the clock — the account of the tenant served last. Next serves the
// eligible tenant (pending work, in-flight leases below quota) with the
// largest deficit; ties break in round-robin order from the last tenant
// served, so equal tenants alternate. A tenant held at its quota is not
// served, falls behind and catches up in a burst once leases free up; a
// tenant with nothing pending banks nothing — its next submission starts at
// the clock. No eligible tenant starves: whoever leads a waiting tenant by
// d is served at most d+1 times before it, however long the leader's
// backlog and however short the waiter's.
//
// Queue is not safe for concurrent use; the fleet server serializes access
// under its own lock. Scheduling order never affects campaign results — the
// determinism contract makes aggregates byte-identical for any schedule —
// so the scheduler is pure wall-clock and fairness policy.
type Queue struct {
	tenants      map[string]*tenantState
	order        []string // tenant admission order: the round-robin ring
	rr           int      // ring index scanning starts from
	clock        int      // the highest account a served tenant had when served
	quotas       map[string]int
	defaultQuota int
}

// tenantState is one tenant's backlog and scheduling accounts.
type tenantState struct {
	name     string
	jobs     []*TenantJob // sorted: Priority desc, Seq asc
	inflight int
	served   int // jobs dispatched, never below the clock at a submission to an empty backlog
}

// NewQueue returns an empty queue. defaultQuota bounds concurrent leases
// per tenant unless overridden by SetQuota; <= 0 means unlimited.
func NewQueue(defaultQuota int) *Queue {
	return &Queue{
		tenants:      map[string]*tenantState{},
		quotas:       map[string]int{},
		defaultQuota: defaultQuota,
	}
}

// SetQuota overrides one tenant's concurrency quota; <= 0 means unlimited.
func (q *Queue) SetQuota(tenant string, quota int) { q.quotas[tenant] = quota }

// SetDefaultQuota replaces the quota of every tenant SetQuota has not named.
func (q *Queue) SetDefaultQuota(quota int) { q.defaultQuota = quota }

// Quota returns the effective quota for a tenant (0 = unlimited).
func (q *Queue) Quota(tenant string) int {
	if quota, ok := q.quotas[tenant]; ok {
		if quota <= 0 {
			return 0
		}
		return quota
	}
	if q.defaultQuota <= 0 {
		return 0
	}
	return q.defaultQuota
}

// tenant returns (creating if needed) a tenant's state, keeping the ring in
// admission order.
func (q *Queue) tenant(name string) *tenantState {
	t, ok := q.tenants[name]
	if !ok {
		t = &tenantState{name: name}
		q.tenants[name] = t
		q.order = append(q.order, name)
	}
	return t
}

// Push adds a job to its tenant's backlog.
func (q *Queue) Push(tj *TenantJob) {
	t := q.tenant(tj.Tenant)
	if len(t.jobs) == 0 {
		t.served = max(t.served, q.clock)
	}
	i := sort.Search(len(t.jobs), func(i int) bool {
		if t.jobs[i].Priority != tj.Priority {
			return t.jobs[i].Priority < tj.Priority
		}
		return t.jobs[i].Seq > tj.Seq
	})
	t.jobs = append(t.jobs, nil)
	copy(t.jobs[i+1:], t.jobs[i:])
	t.jobs[i] = tj
}

// Requeue returns a previously dispatched job to its tenant's backlog —
// the lease expired or its worker died — releasing the in-flight slot it
// held. The job keeps its original Seq, so it schedules ahead of newer work.
func (q *Queue) Requeue(tj *TenantJob) {
	q.Release(tj.Tenant)
	q.Push(tj)
}

// Release frees one of a tenant's in-flight slots: its job completed (or
// was absorbed by a cache hit at grant time).
func (q *Queue) Release(tenant string) {
	if t, ok := q.tenants[tenant]; ok && t.inflight > 0 {
		t.inflight--
	}
}

// atQuota reports whether the tenant has exhausted its concurrency quota.
func (q *Queue) atQuota(t *tenantState) bool {
	quota := q.Quota(t.name)
	return quota > 0 && t.inflight >= quota
}

// Next dispatches the highest-priority job of the eligible tenant furthest
// behind, charging an in-flight slot the caller must return via Release or
// Requeue. It returns nil when no tenant is eligible — nothing pending, or
// everything pending belongs to tenants at quota.
func (q *Queue) Next() *TenantJob {
	n := len(q.order)
	var best *tenantState
	bestAt := 0
	for i := 0; i < n; i++ {
		t := q.tenants[q.order[(q.rr+i)%n]]
		if len(t.jobs) == 0 || q.atQuota(t) {
			continue
		}
		if best == nil || t.served < best.served {
			best, bestAt = t, i
		}
	}
	if best == nil {
		return nil
	}
	q.clock = max(q.clock, best.served)
	best.served++
	q.rr = (q.rr + bestAt + 1) % n
	best.inflight++
	tj := best.jobs[0]
	best.jobs = best.jobs[1:]
	return tj
}

// TenantView is one tenant's queue state, for status endpoints.
type TenantView struct {
	Tenant   string `json:"tenant"`
	Pending  int    `json:"pending"`
	InFlight int    `json:"in_flight"`
	Quota    int    `json:"quota,omitempty"` // 0 = unlimited
	Deficit  int    `json:"deficit"`         // jobs behind the clock; <= 0 when level or just served
}

// Tenants returns a per-tenant view in admission order.
func (q *Queue) Tenants() []TenantView {
	views := make([]TenantView, 0, len(q.order))
	for _, name := range q.order {
		t := q.tenants[name]
		views = append(views, TenantView{
			Tenant:   name,
			Pending:  len(t.jobs),
			InFlight: t.inflight,
			Quota:    q.Quota(name),
			Deficit:  q.clock - t.served,
		})
	}
	return views
}
