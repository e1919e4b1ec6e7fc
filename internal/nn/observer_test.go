package nn

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// observerDataset builds a small, well-conditioned linear regression
// problem the MLP can steadily descend on.
func observerDataset(t *testing.T, n int) Dataset {
	t.Helper()
	x := NewTensor(n, 4)
	y := NewTensor(n, 1)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < 4; j++ {
			v := math.Sin(float64(i*4+j) * 0.7)
			x.Data[i*4+j] = v
			sum += v * float64(j+1) * 0.1
		}
		y.Data[i] = sum
	}
	return Dataset{X: x, Y: y}
}

func observerModel() Model {
	r := rand.New(rand.NewSource(11))
	return NewSequential(NewDense(4, 16, r), &ReLU{}, NewDense(16, 1, r))
}

func TestEpochObserverFiresPerEpochInOrder(t *testing.T) {
	const epochs = 6
	data := observerDataset(t, 64)
	opt, err := NewAdam(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	var seen []EpochStats
	var durs []time.Duration
	cfg := TrainConfig{
		Epochs: epochs, BatchSize: 8, ValFrac: 0, Seed: 7, ClipGrad: 5,
		EpochObserver: func(s EpochStats, d time.Duration) {
			seen = append(seen, s)
			durs = append(durs, d)
		},
	}
	h, err := Train(observerModel(), data, MSE{}, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The callback fires exactly once per completed epoch, in order.
	if len(seen) != epochs {
		t.Fatalf("observer fired %d times, want %d", len(seen), epochs)
	}
	if len(h.Epochs) != epochs {
		t.Fatalf("history has %d epochs, want %d", len(h.Epochs), epochs)
	}
	for i, s := range seen {
		if s.Epoch != i {
			t.Errorf("callback %d reported epoch %d", i, s.Epoch)
		}
		if s.TrainLoss != h.Epochs[i].TrainLoss {
			t.Errorf("epoch %d: observer loss %v != history loss %v", i, s.TrainLoss, h.Epochs[i].TrainLoss)
		}
		if durs[i] < 0 {
			t.Errorf("epoch %d: negative duration %v", i, durs[i])
		}
	}
	// On this deterministic seed the reported train loss is monotonically
	// nonincreasing.
	for i := 1; i < len(seen); i++ {
		if seen[i].TrainLoss > seen[i-1].TrainLoss {
			t.Errorf("train loss increased at epoch %d: %v -> %v",
				i, seen[i-1].TrainLoss, seen[i].TrainLoss)
		}
	}
}

func TestEpochObserverStopsWithEarlyStopping(t *testing.T) {
	data := observerDataset(t, 48)
	// A divergent learning rate guarantees validation loss stops
	// improving, so patience-based early stopping must cut the run short.
	opt, err := NewAdam(50)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	cfg := TrainConfig{
		Epochs: 50, BatchSize: 8, ValFrac: 0.25, Seed: 3, Patience: 2,
		EpochObserver: func(EpochStats, time.Duration) { fired++ },
	}
	h, err := Train(observerModel(), data, MSE{}, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Stopped {
		t.Fatal("expected early stopping to fire")
	}
	if fired != len(h.Epochs) {
		t.Fatalf("observer fired %d times but history has %d epochs", fired, len(h.Epochs))
	}
	if fired >= 50 {
		t.Fatalf("early stopping did not shorten the run (fired %d)", fired)
	}
}
