package netem

import (
	"fmt"
	"sort"
)

// Mesh is a validated N-peer link fabric: one named, bidirectional link
// per unordered peer pair, derived from a base profile. It exists so the
// peer-to-peer layers (gossip dissemination, regional fabrics) stop
// hand-rolling `map[string]Link` tables with ad-hoc naming: the mesh owns
// the canonical pair→link mapping, every link carries a stable
// deterministic name (base profile name + the sorted pair), and the
// constructor rejects the mistakes a hand-rolled map silently absorbs —
// duplicate peers, self-pairs, an invalid base profile.
//
// A Mesh is immutable after construction, so it is safe for concurrent
// readers; the Net it is used with already serializes
// its own RNG draws.
type Mesh struct {
	peers []string
	links map[[2]string]Link
}

// pairKey returns the canonical (sorted) key for an unordered pair.
func pairKey(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// PairLinkName is the deterministic name a mesh link gets: the base
// profile's name, then the two peers in sorted order. Scenario files and
// netctl can target one pair of a mesh with it.
func PairLinkName(base, a, b string) string {
	k := pairKey(a, b)
	return base + ":" + k[0] + "--" + k[1]
}

// NewMesh builds the full mesh over peers with every pair inheriting the
// base profile (same latency/bandwidth/loss, per-pair name). It rejects
// an invalid base, fewer than two peers, empty names, and duplicates.
func NewMesh(base Link, peers []string) (*Mesh, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("netem: mesh base profile: %w", err)
	}
	if len(peers) < 2 {
		return nil, fmt.Errorf("netem: mesh needs at least 2 peers, got %d", len(peers))
	}
	sorted := make([]string, len(peers))
	copy(sorted, peers)
	sort.Strings(sorted)
	for i, p := range sorted {
		if p == "" {
			return nil, fmt.Errorf("netem: mesh peer %d has an empty name", i)
		}
		if i > 0 && sorted[i-1] == p {
			return nil, fmt.Errorf("netem: duplicate mesh peer %q", p)
		}
	}
	m := &Mesh{peers: sorted, links: make(map[[2]string]Link, len(sorted)*(len(sorted)-1)/2)}
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			l := base
			l.Name = PairLinkName(base.Name, sorted[i], sorted[j])
			m.links[pairKey(sorted[i], sorted[j])] = l
		}
	}
	return m, nil
}

// Link resolves the pair's link. Self-pairs and unknown peers are errors
// — exactly the lookups a hand-rolled map answers with a zero Link that
// then fails deep inside a transfer.
func (m *Mesh) Link(a, b string) (Link, error) {
	if a == b {
		return Link{}, fmt.Errorf("netem: mesh self-pair %q", a)
	}
	l, ok := m.links[pairKey(a, b)]
	if !ok {
		return Link{}, fmt.Errorf("netem: no mesh link between %q and %q", a, b)
	}
	return l, nil
}
