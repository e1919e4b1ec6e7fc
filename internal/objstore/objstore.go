// Package objstore emulates Chameleon's Swift-compatible object store
// (§3.5 "Chameleon's Object Store"), where AutoLearn keeps its sample
// datasets and trained models: containers of named objects with ETags
// and metadata. The store is in-memory and safe for concurrent use.
package objstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Errors returned by store operations.
var (
	ErrNoContainer = errors.New("objstore: container not found")
	ErrNoObject    = errors.New("objstore: object not found")
	ErrExists      = errors.New("objstore: container already exists")
	ErrBadName     = errors.New("objstore: invalid name")
)

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	Name         string
	Size         int64
	ETag         string
	LastModified time.Time
	Metadata     map[string]string
}

type object struct {
	data []byte
	info ObjectInfo
}

// Store is a multi-container object store.
type Store struct {
	mu         sync.RWMutex
	containers map[string]map[string]*object
	faultHook  func(op, container, name string) error
	obsTracer  *obs.Tracer
}

// New creates an empty store.
func New() *Store {
	return &Store{containers: map[string]map[string]*object{}}
}

// SetFaultHook installs a fault-injection hook consulted before every Put
// and Get. A non-nil return aborts the operation with that error (fault
// plans return transient, retryable errors). Nil removes the hook. The
// hook keeps the store free of any dependency on the faults package.
func (s *Store) SetFaultHook(fn func(op, container, name string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faultHook = fn
}

// faultCheck runs the installed hook, if any, outside the store's lock.
func (s *Store) faultCheck(op, container, name string) error {
	s.mu.RLock()
	fn := s.faultHook
	s.mu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(op, container, name)
}

func validName(n string) bool {
	return n != "" && !strings.ContainsAny(n, "\x00\n") && len(n) <= 256
}

// CreateContainer makes a new, empty container.
func (s *Store) CreateContainer(name string) error {
	if !validName(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.containers[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	s.containers[name] = map[string]*object{}
	return nil
}

// Put stores an object (overwriting any previous version) and returns its
// info. Data is copied.
func (s *Store) Put(container, name string, data []byte, meta map[string]string) (ObjectInfo, error) {
	if !validName(name) {
		return ObjectInfo{}, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if err := s.faultCheck("put", container, name); err != nil {
		return ObjectInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[container]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %q", ErrNoContainer, container)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	sum := sha256.Sum256(cp)
	m := map[string]string{}
	for k, v := range meta {
		m[k] = v
	}
	info := ObjectInfo{
		Name:         name,
		Size:         int64(len(cp)),
		ETag:         hex.EncodeToString(sum[:16]),
		LastModified: time.Now(),
		Metadata:     m,
	}
	c[name] = &object{data: cp, info: info}
	return info, nil
}

// Get returns a copy of the object's bytes and its info.
func (s *Store) Get(container, name string) ([]byte, ObjectInfo, error) {
	if err := s.faultCheck("get", container, name); err != nil {
		return nil, ObjectInfo{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, err := s.lookup(container, name)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	cp := make([]byte, len(o.data))
	copy(cp, o.data)
	return cp, o.info, nil
}

// Head returns object info without the body.
func (s *Store) Head(container, name string) (ObjectInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, err := s.lookup(container, name)
	if err != nil {
		return ObjectInfo{}, err
	}
	return o.info, nil
}

func (s *Store) lookup(container, name string) (*object, error) {
	c, ok := s.containers[container]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoContainer, container)
	}
	o, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoObject, container, name)
	}
	return o, nil
}
