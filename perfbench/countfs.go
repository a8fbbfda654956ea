package main

import (
	"os"
	"sync/atomic"

	"rlz/internal/faultfs"
)

// countingFS wraps a faultfs.FS and counts the durable write path's
// filesystem work: bytes written through File.Write and WriteFile, and
// fsyncs (File.Sync and SyncDir). Safe for concurrent use.
type countingFS struct {
	faultfs.FS
	writeBytes atomic.Int64
	fsyncs     atomic.Int64
}

func newCountingFS(inner faultfs.FS) *countingFS {
	return &countingFS{FS: inner}
}

// snapshot returns the counters so far.
func (c *countingFS) snapshot() (writeBytes, fsyncs int64) {
	return c.writeBytes.Load(), c.fsyncs.Load()
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	err := c.FS.WriteFile(name, data, perm)
	if err == nil {
		c.writeBytes.Add(int64(len(data)))
	}
	return err
}

func (c *countingFS) SyncDir(dir string) error {
	c.fsyncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.fsyncs.Add(1)
	return f.File.Sync()
}
