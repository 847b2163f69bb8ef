package engine

import (
	"container/list"
	"fmt"

	"noblsm/internal/keys"
	"noblsm/internal/obs"
	"noblsm/internal/vclock"
	"noblsm/internal/version"
)

// Snapshot pins a point-in-time view: reads through it see exactly the
// writes sequenced at or before its creation, and compactions retain
// the versions it can observe until it is released.
type Snapshot struct {
	seq  keys.SeqNum
	elem *list.Element
}

// GetSnapshot pins the current state. Callers must ReleaseSnapshot
// when done, or compactions will retain superseded versions forever.
func (db *DB) GetSnapshot() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	// visibleSeq, not lastSeq: a snapshot must not observe a write
	// group that is still being applied to the memtable.
	s := &Snapshot{seq: db.visibleSeq.Load()}
	s.elem = db.snapshots.PushBack(s)
	return s
}

// ReleaseSnapshot unpins s. Releasing twice is an error.
func (db *DB) ReleaseSnapshot(s *Snapshot) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s.elem == nil {
		return fmt.Errorf("engine: snapshot already released")
	}
	db.snapshots.Remove(s.elem)
	s.elem = nil
	return nil
}

// smallestSnapshotLocked reports the oldest sequence any live snapshot
// can observe (lastSeq when none are held). Compactions must keep the
// newest version at or below this for every key.
func (db *DB) smallestSnapshotLocked() keys.SeqNum {
	if db.snapshots.Len() == 0 {
		return db.lastSeq
	}
	return db.snapshots.Front().Value.(*Snapshot).seq
}

// GetAt reads key as of the snapshot.
func (db *DB) GetAt(tl *vclock.Timeline, key []byte, snap *Snapshot) ([]byte, error) {
	return db.get(tl, key, snap.seq)
}

// NewIteratorAt returns an iterator over the state as of the snapshot.
func (db *DB) NewIteratorAt(tl *vclock.Timeline, snap *Snapshot) (*Iterator, error) {
	return db.newIterator(tl, snap.seq)
}

// CompactRange forces compaction of all data overlapping [begin, end]
// (nil bounds are unbounded) down the tree, like LevelDB's manual
// compaction: the memtable is flushed first, then every level holding
// overlapping files is compacted into the next.
func (db *DB) CompactRange(tl *vclock.Timeline, begin, end []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.waitIdle(); err != nil {
		return err
	}
	if !db.mem.Empty() {
		db.waitStall(tl, db.sched.minorDoneAt, obs.StallMemtableFull)
		if err := db.rotateMemtable(tl); err != nil {
			return err
		}
		if err := db.waitIdle(); err != nil {
			return err
		}
	}
	// Manual compaction walks and edits version state directly, so it
	// takes the stopped work loop's place: a kick meanwhile starts
	// nothing, and the loop picks up at the end whatever writers parked
	// or the pushed-down data tipped over.
	db.sched.active = true
	defer func() {
		db.sched.active = false
		db.kick(tl.Now())
	}()
	for level := 0; level < version.NumLevels-1; level++ {
		for {
			files := db.current.Overlapping(level, begin, end)
			if len(files) == 0 {
				break
			}
			c := version.SetupCompaction(db.current, level, files[0], &db.pointers, db.opts.Picker)
			if c.Empty() {
				break
			}
			bg := db.pickBg()
			bg.WaitUntil(tl.Now())
			if err := db.doCompaction(bg, c); err != nil {
				return err
			}
		}
	}
	tl.WaitUntil(db.maxBgTime())
	return nil
}
