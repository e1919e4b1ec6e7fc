package netem

import (
	"testing"
	"time"
)

func TestIngressQueueSerializes(t *testing.T) {
	var q IngressQueue
	// Idle receiver: the transfer lands as it arrives.
	if got := q.Admit(2*time.Second, 3*time.Second); got != 5*time.Second {
		t.Fatalf("first admit completed at %v, want 5s", got)
	}
	// Arrives while busy: waits for the queue to drain.
	if got := q.Admit(3*time.Second, 1*time.Second); got != 6*time.Second {
		t.Fatalf("queued admit completed at %v, want 6s", got)
	}
	// Arrives after the queue drained: no wait.
	if got := q.Admit(10*time.Second, 2*time.Second); got != 12*time.Second {
		t.Fatalf("post-drain admit completed at %v, want 12s", got)
	}
}
