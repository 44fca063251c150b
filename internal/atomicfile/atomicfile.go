// Package atomicfile is the one durable-write primitive every state
// file in the repo goes through: checkpoints, campaign state, the
// supervisor's store and the CLIs' -archive-out run archives all persist
// via WriteFile, so they all share the same crash contract (a killed run
// never leaves a torn archive for spider-diff).
//
// The contract is stronger than "temp file + rename". Rename makes the
// replacement atomic with respect to concurrent readers, and fsyncing
// the temp file makes the *content* durable — but the rename itself
// lives in the parent directory, and until the directory's own metadata
// reaches disk a power loss can forget the file entirely (leaving
// neither the old nor the new version). WriteFile therefore does all
// four steps: write temp, fsync temp, rename over path, fsync the
// parent directory.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically and durably: a sibling temp
// file is written and fsynced, renamed over path, and the parent
// directory is fsynced so the rename survives a crash. On any error the
// previous file at path is left intact and the temp file is removed.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	// CreateTemp makes the file 0600; the written file gets the mode
	// os.WriteFile(path, data, 0o644) would give it, so run archives
	// stay readable by whoever could read them before they were atomic.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
