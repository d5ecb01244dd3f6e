package main

import (
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// memFS is an in-memory manifest.FS. lockdocd's segment store runs on
// it so that an append pays the store's encoding and compaction CPU
// but not the fsync latency of whatever disk the benchmark runs on,
// which varies far more between runs than the code under test does.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func (m *memFS) MkdirAll(string) error { return nil }

func (m *memFS) WriteFile(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[filepath.Clean(name)] = append([]byte(nil), data...)
	return nil
}

func (m *memFS) AppendFile(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	m.files[name] = append(m.files[name], data...)
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	data, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var names []string
	for name := range m.files {
		if rest, ok := strings.CutPrefix(name, prefix); ok && !strings.ContainsRune(rest, filepath.Separator) {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}
