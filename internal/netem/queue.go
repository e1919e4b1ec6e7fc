package netem

import "time"

// IngressQueue models serialization occupancy at one receiver: a link
// terminates in one NIC/endpoint that lands one transfer at a time, so a
// transfer arriving while the receiver is busy waits for the queue to
// drain. Times are durations relative to an epoch the caller picks (a
// federated round start, typically); the zero value is an idle receiver.
//
// The model is deliberately minimal — FIFO in admission order, no
// preemption — because it exists to make fan-in cost visible: N workers
// funneling into one parameter server complete in ~N·d, while the same N
// spread over R regional aggregators (R parallel queues, then R partials
// through the cloud queue) complete in ~(N/R + R)·d. Callers must Admit
// in a deterministic order (arrival time, then a stable index) so
// same-seed runs replay identically.
type IngressQueue struct {
	busyUntil time.Duration
}

// Admit lands a transfer that arrives at the receiver at arrival and
// occupies it for dur, returning the completion time: transmission starts
// when both the sender's bytes are there and the receiver is free.
func (q *IngressQueue) Admit(arrival, dur time.Duration) time.Duration {
	start := arrival
	if q.busyUntil > start {
		start = q.busyUntil
	}
	q.busyUntil = start + dur
	return q.busyUntil
}
