// Package trovi emulates the Trovi experiment hub (§3.2, §5): versioned
// digital artifacts that users can find, view, launch and execute, with the
// life-cycle metadata (tags, descriptions, author lists) and the adoption
// metrics the paper reports — launch-button clicks, unique launching users,
// unique users who executed at least one cell, and published version count.
package trovi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Version is one published revision of an artifact.
type Version struct {
	Number    int
	CreatedAt time.Time
	Payload   []byte // exported notebook bundle
	Note      string
}

// Metrics is the adoption data Trovi collects automatically, "without
// placing a reporting burden on the users of the artifact" (§5).
type Metrics struct {
	Views        int
	LaunchClicks int
	LaunchUsers  int // unique users who clicked launch
	ExecUsers    int // unique users who executed at least one cell
	Versions     int
}

// Artifact is a shared experiment package.
type Artifact struct {
	ID          string
	Title       string
	Authors     []string
	Description string
	Tags        []string

	versions []Version

	views        int
	launchClicks int
	launchUsers  map[string]bool
	execUsers    map[string]bool
}

// Errors returned by hub operations.
var (
	ErrNoArtifact = errors.New("trovi: artifact not found")
	ErrBadInput   = errors.New("trovi: invalid input")
)

// Hub is the artifact registry. It is safe for concurrent use.
type Hub struct {
	mu        sync.Mutex
	artifacts map[string]*Artifact
	nextID    int
}

// NewHub creates an empty hub.
func NewHub() *Hub { return &Hub{artifacts: map[string]*Artifact{}} }

// Publish registers a new artifact with its first version.
func (h *Hub) Publish(title string, authors []string, payload []byte, at time.Time) (*Artifact, error) {
	if title == "" || len(authors) == 0 {
		return nil, fmt.Errorf("%w: title and authors required", ErrBadInput)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	a := &Artifact{
		ID:          fmt.Sprintf("artifact-%04d", h.nextID),
		Title:       title,
		Authors:     append([]string(nil), authors...),
		launchUsers: map[string]bool{},
		execUsers:   map[string]bool{},
	}
	a.versions = append(a.versions, Version{Number: 1, CreatedAt: at, Payload: clone(payload)})
	h.artifacts[a.ID] = a
	return a, nil
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// PublishVersion appends a new version (§4: "the learning community can
// have access to different versions").
func (h *Hub) PublishVersion(id string, payload []byte, note string, at time.Time) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.artifacts[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoArtifact, id)
	}
	n := len(a.versions) + 1
	a.versions = append(a.versions, Version{Number: n, CreatedAt: at, Payload: clone(payload), Note: note})
	return n, nil
}

// SetMetadata updates description and tags (artifact life-cycle management).
func (h *Hub) SetMetadata(id, description string, tags []string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.artifacts[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoArtifact, id)
	}
	a.Description = description
	a.Tags = append([]string(nil), tags...)
	return nil
}

// RecordView counts a page view.
func (h *Hub) RecordView(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.artifacts[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoArtifact, id)
	}
	a.views++
	return nil
}

// RecordLaunch counts a launch-button click by a user.
func (h *Hub) RecordLaunch(id, user string) error {
	if user == "" {
		return fmt.Errorf("%w: empty user", ErrBadInput)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.artifacts[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoArtifact, id)
	}
	a.launchClicks++
	a.launchUsers[user] = true
	return nil
}

// RecordExecution counts a user executing at least one cell. Trovi defines
// an "execution" as running at least one cell of the artifact.
func (h *Hub) RecordExecution(id, user string) error {
	if user == "" {
		return fmt.Errorf("%w: empty user", ErrBadInput)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.artifacts[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoArtifact, id)
	}
	a.execUsers[user] = true
	return nil
}

// MetricsFor returns the artifact's adoption metrics snapshot.
func (h *Hub) MetricsFor(id string) (Metrics, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	a, ok := h.artifacts[id]
	if !ok {
		return Metrics{}, fmt.Errorf("%w: %q", ErrNoArtifact, id)
	}
	return Metrics{
		Views:        a.views,
		LaunchClicks: a.launchClicks,
		LaunchUsers:  len(a.launchUsers),
		ExecUsers:    len(a.execUsers),
		Versions:     len(a.versions),
	}, nil
}
