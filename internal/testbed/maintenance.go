package testbed

import (
	"fmt"
)

// This file adds an operational reality that classes run into on shared
// testbeds: a node yanked into maintenance under a running lease.

// ErrMaintenance is returned when an operation touches a node that is
// down for maintenance.
var ErrMaintenance = fmt.Errorf("testbed: node is in maintenance")

// PreemptLease is failure injection for the reservation system: the
// operator yanks a node out from under a running lease (hardware fault,
// emergency maintenance). The lease is removed from the calendar and the
// node goes into maintenance, so the victim must re-reserve elsewhere and
// resume from its last checkpoint.
func (tb *Testbed) PreemptLease(leaseID string) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	l, ok := tb.leases[leaseID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoLease, leaseID)
	}
	delete(tb.leases, leaseID)
	ls := tb.byNode[l.NodeID]
	for i, x := range ls {
		if x.ID == leaseID {
			tb.byNode[l.NodeID] = append(ls[:i], ls[i+1:]...)
			break
		}
	}
	if tb.maintenance == nil {
		tb.maintenance = map[string]bool{}
	}
	tb.maintenance[l.NodeID] = true
	tb.metrics.Counter("testbed_preemptions_total").Inc()
	return nil
}
