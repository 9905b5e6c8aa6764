package sweep

// This file abstracts the lease protocol's medium: every plan, claim
// marker and completion record the engine persists goes through a small
// Store interface instead of bare *os.File paths. Two implementations
// ship: DirStore, the local-directory store every CLI run uses (atomic
// temp+rename writes, so a kill mid-Put never leaves a torn object), and
// MemStore, an in-memory store whose fault hooks let the chaos suite
// inject torn and failed writes deterministically.
//
// Store names are '/'-separated paths of safe segments (letters, digits,
// '.', '_', '-'); the lease protocol (lease.go) builds its run layout out
// of them:
//
//	<run>/plan            – the run's plan identity + grain schedule
//	<run>/claim/<s>-<t0>  – advisory per-grain claim markers (a worker id)
//	<run>/done/<s>-<t0>   – immutable per-grain completion records
//
// Writers may race: Put is last-write-wins, and the lease protocol is
// designed so racing writers only ever duplicate work, never corrupt it.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the persistence interface of distributed sweeps. Implementations
// must be safe for concurrent use by multiple goroutines (and, for shared
// media like directories, by multiple processes).
type Store interface {
	// Put atomically replaces the named object with data. Readers never
	// observe a torn object from a correct implementation; a failed Put may
	// leave the previous object or — on faulty media — garbage a reader
	// must reject by content (the codec's job).
	Put(name string, data []byte) error
	// Get returns the named object's bytes. A missing object reports an
	// error satisfying errors.Is(err, fs.ErrNotExist).
	Get(name string) ([]byte, error)
	// List returns, in ascending order, the names of all objects whose
	// name starts with prefix.
	List(prefix string) ([]string, error)
	// Delete removes the named object; deleting a missing object is not an
	// error.
	Delete(name string) error
}

// validStoreName enforces the name grammar shared by every implementation:
// non-empty '/'-separated segments of [A-Za-z0-9._-], no empty segments, no
// "." or ".." (a DirStore must never escape its root).
func validStoreName(name string) error {
	if name == "" {
		return fmt.Errorf("sweep: empty store name")
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return fmt.Errorf("sweep: store name %q has an invalid path segment", name)
		}
		for _, r := range seg {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
			default:
				return fmt.Errorf("sweep: store name %q contains %q; use letters, digits, '.', '_', '-'", name, r)
			}
		}
	}
	return nil
}

// DirStore is the local-directory Store: objects are files under a root,
// written atomically (temp + rename in the target directory), so a SIGKILL
// at any instant leaves either the previous object or the new one — never
// a torn file. Multiple processes sharing the directory cooperate safely.
type DirStore struct {
	root string
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("sweep: open dir store: %w", err)
	}
	return &DirStore{root: root}, nil
}

func (s *DirStore) path(name string) string {
	return filepath.Join(s.root, filepath.FromSlash(name))
}

// Put writes the object atomically: temp file in the final directory,
// synced, renamed over the destination.
func (s *DirStore) Put(name string, data []byte) error {
	if err := validStoreName(name); err != nil {
		return err
	}
	// A vanished root must fail the write, not be silently recreated:
	// MkdirAll would happily resurrect an empty store and strand this
	// object in it, hiding from the writer that every other record — the
	// run's plan, its completions — is gone.
	if _, err := os.Stat(s.root); err != nil {
		return fmt.Errorf("sweep: store put %s: root: %w", name, err)
	}
	path := s.path(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return fmt.Errorf("sweep: store put %s: %w", name, err)
	}
	if err := atomicWriteFile(path, data); err != nil {
		return fmt.Errorf("sweep: store put %s: %w", name, err)
	}
	return nil
}

// Get reads the object; missing objects satisfy errors.Is(_, fs.ErrNotExist).
func (s *DirStore) Get(name string) ([]byte, error) {
	if err := validStoreName(name); err != nil {
		return nil, err
	}
	return os.ReadFile(s.path(name))
}

// List returns every object name with the prefix, in ascending order. It
// walks only the directory the prefix names up to its last '/', so other
// runs' objects cost nothing and an unreadable sibling directory (say
// lost+found on a mount root) cannot fail the listing.
func (s *DirStore) List(prefix string) ([]string, error) {
	start := s.root
	if i := strings.LastIndex(prefix, "/"); i >= 0 {
		if validStoreName(prefix[:i]) != nil {
			return nil, nil // no valid name lies under an invalid directory
		}
		start = s.path(prefix[:i])
	}
	var names []string
	err := filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A concurrently deleted entry, or a prefix directory nothing
			// was written to yet, lists nothing — but the ROOT vanishing is
			// a store fault, not an empty store: a lease executor must die
			// visibly rather than conclude no work was ever done and replan
			// the world.
			if os.IsNotExist(err) {
				if _, rerr := os.Stat(s.root); rerr != nil {
					return rerr
				}
				return nil
			}
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: store list %q: %w", prefix, err)
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes the object; missing objects are fine.
func (s *DirStore) Delete(name string) error {
	if err := validStoreName(name); err != nil {
		return err
	}
	if err := os.Remove(s.path(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("sweep: store delete %s: %w", name, err)
	}
	return nil
}

// atomicWriteFile writes data to path via a temp file in the same
// directory, synced and renamed into place — the write either fully
// happens or leaves the previous content.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// PutFault intercepts one MemStore.Put: it returns the bytes actually
// stored (possibly truncated — a torn write) and the error reported to the
// writer. Returning (data, nil) passes the write through unchanged;
// returning (nil, err) stores nothing and fails the Put; returning
// (prefix, err) models a crash mid-write on non-atomic media: garbage
// lands AND the writer learns it failed.
type PutFault func(name string, data []byte) ([]byte, error)

// MemStore is the in-memory Store the test suites run the lease protocol
// against: no filesystem, deterministic fault injection. Safe for
// concurrent use.
type MemStore struct {
	mu      sync.Mutex
	objects map[string][]byte
	onPut   PutFault
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[string][]byte)}
}

// FaultPuts installs (or, with nil, removes) the Put interceptor. The hook
// runs under the store's lock — keep it cheap and non-reentrant.
func (s *MemStore) FaultPuts(f PutFault) {
	s.mu.Lock()
	s.onPut = f
	s.mu.Unlock()
}

// Put stores a copy of data under name, subject to the installed fault.
func (s *MemStore) Put(name string, data []byte) error {
	if err := validStoreName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	stored, err := data, error(nil)
	if s.onPut != nil {
		stored, err = s.onPut(name, data)
	}
	if stored != nil {
		s.objects[name] = append([]byte(nil), stored...)
	}
	return err
}

// Get returns a copy of the object's bytes, or fs.ErrNotExist.
func (s *MemStore) Get(name string) ([]byte, error) {
	if err := validStoreName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[name]
	if !ok {
		return nil, fmt.Errorf("sweep: store object %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// List returns all names with the prefix, ascending.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.objects))
	for name := range s.objects {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes the object; missing objects are fine.
func (s *MemStore) Delete(name string) error {
	if err := validStoreName(name); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.objects, name)
	s.mu.Unlock()
	return nil
}
