package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Cache is the content-addressed result store: one JSON file per job, named
// by the hash of the job's fully resolved parameters (Params.Key). Because
// jobs are deterministic, a hit is exactly equivalent to re-running the
// simulation — re-running a campaign skips every point it has already won,
// and a campaign interrupted mid-flight resumes from what completed.
//
// The same directory is safely shared by concurrent writers — in-process
// worker goroutines, or many worker processes against one fleetd cache:
// entries are published by atomic rename, so readers only ever see complete
// documents, and duplicate Puts of the same key are idempotent (deterministic
// jobs produce byte-identical results).
type Cache struct {
	dir string
}

// orphanAge is how stale a temp file must be before OpenCache collects it.
// A writer SIGKILLed between CreateTemp and rename leaks its temp file
// forever; sweeping only old ones keeps the collection from racing a live
// writer in another process that is mid-Put right now.
const orphanAge = time.Hour

// OpenCache creates (if needed) and opens a cache directory, collecting any
// orphaned temp files a killed writer left behind.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: cache: %w", err)
	}
	c := &Cache{dir: dir}
	c.sweepOrphans()
	return c, nil
}

// sweepOrphans removes stale temp files (see orphanAge). Best-effort: a
// failure to sweep never fails the open.
func (c *Cache) sweepOrphans() {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*.tmp-*"))
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-orphanAge)
	for _, m := range matches {
		if info, err := os.Stat(m); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(m)
		}
	}
}

// Dir returns the cache directory path.
func (c *Cache) Dir() string { return c.dir }

// path returns the entry file for a key.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// Get returns the cached result for a key. Unreadable, empty, truncated or
// corrupt entries are treated as misses (the job simply re-runs and
// overwrites them).
func (c *Cache) Get(key string) (*Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil || r.Key != key {
		return nil, false
	}
	return &r, true
}

// Put stores a result under its own key, atomically and durably (see
// writeFileAtomic), so a crash at any point leaves either the old entry or
// the complete new one, never a zero-length or truncated file that a later
// run would have to detect.
func (c *Cache) Put(r *Result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(c.path(r.Key), append(data, '\n')); err != nil {
		return fmt.Errorf("campaign: cache: %w", err)
	}
	return nil
}

// writeFileAtomic publishes data under path atomically and durably: it is
// written to a temp file in the same directory, fsynced, renamed over path,
// and the directory is fsynced. A crash at any point leaves either the old
// file or the complete new one.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		// The rename below publishes the name; without this fsync a power
		// cut can publish a name whose blocks never hit the disk.
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the most recent rename in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
