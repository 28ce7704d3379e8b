// Package durability turns the WAL record format (internal/wal) and the
// catalog snapshot format (internal/snapshot) into a crash-safe store:
// a group-commit segment log that acknowledges mutations only after
// their batch is fsynced, snapshot-paired segment rotation so the log
// stays truncatable, a MANIFEST recording the lineage, and a recovery
// planner that picks the newest valid snapshot generation and replays
// the WAL tail behind it. The facade (amnesiadb.OpenDir) wires these
// pieces to the catalog; this package knows only files and bytes.
package durability

import "fmt"

// FsyncPolicy selects when the committer fsyncs the segment.
type FsyncPolicy int

const (
	// FsyncAlways syncs every batch before acknowledging it: an
	// acknowledged mutation survives kill -9. Group commit still
	// batches whatever queued during the previous sync, so concurrent
	// writers share fsyncs.
	FsyncAlways FsyncPolicy = iota
	// FsyncGroup, the facade's default, is a second name for the same
	// discipline: batches form only while a sync is in flight, so there
	// is no window to wait out and a lone writer pays one fsync, not a
	// nap plus one. The name stays an accepted -fsync value.
	FsyncGroup
	// FsyncOff writes without syncing: the OS decides when bytes reach
	// the disk, so a machine crash can lose the tail. Process crashes
	// (including SIGKILL) still lose nothing the kernel accepted.
	FsyncOff
)

// ParsePolicy maps the -fsync flag values to a policy.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "group":
		return FsyncGroup, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durability: unknown fsync policy %q (want always, group or off)", s)
}

// String renders the flag form.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncGroup:
		return "group"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}
