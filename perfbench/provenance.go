package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// commit names the source measured: the VCS revision stamped into this
// binary when it was built inside a git checkout, else the source-tree
// digest run.sh computes, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	if src := os.Getenv("PERFBENCH_SOURCE"); src != "" {
		return src
	}
	return "unknown"
}

// fsTypes names the filesystem magic numbers of statfs(2) likely to
// hold the benchmark's temporary directory.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x9123683E: "btrfs",
	0x2FC12FC1: "zfs",
	0x6a656a63: "fakeowner",
	0x65735546: "fuse",
}

// fsType reports the filesystem type holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
