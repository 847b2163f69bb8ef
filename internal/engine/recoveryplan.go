// recoveryplan.go holds the one rule, for Open's recovery, Repair and a
// self-healing read (heal.go) alike, that decides which version
// installs survive a crash, or a lost table. NobLSM
// keeps a compaction's inputs as shadows until its outputs commit
// (paper §4.3), so recovery can fall back from an install whose
// outputs the crash lost to its inputs. An install is undone when
//   - one of its new files is invalid and no later applied edit
//     deletes it, or
//   - a file it placed at level ≥ 1 overlaps a file that undoing an
//     earlier edit brought back, at that file's level or deeper — the
//     older file would shadow it on lookups —
//
// and its inputs are covered: each is valid, or an output of an
// install that is undone or whose own inputs are covered. A trivial
// move's input is its own file, so an intact one's always is. A flush
// has no inputs: its log covers its own lost output, but neither an
// output a later install consumed nor an intact one an overlap would
// discard. Undoing repeats until neither case is left.
//
// An undone edit contributes no metadata, except that recovery replays
// an undone flush's log. Where an install must be undone and cannot
// be, the plan asks for repair: Repair's flat level-0 rebuild resolves
// versions by sequence number.
package engine

import (
	"math"
	"slices"

	"noblsm/internal/keys"
	"noblsm/internal/version"
)

type recoveryPlan struct {
	// version holds every surviving file at its level; logNumber,
	// nextFile and lastSeq are the counters recovery adopts.
	version             *version.Version
	logNumber, nextFile uint64
	lastSeq             keys.SeqNum
	// undone are the indices of the edits rolled back, oldest first;
	// resurrected the files live again at a level an undone edit had
	// deleted them from.
	undone      []int
	resurrected []version.DeletedFile
	// superseded were deleted by an applied install with no lost
	// output; condemned are outputs of undone installs.
	superseded, condemned map[uint64]bool
	// needsRepair: an install that must be undone cannot be.
	needsRepair bool
}

type planner struct {
	edits  []*version.VersionEdit
	valid  func(num uint64) bool
	undone []bool
	// placedBy is the last applied edit that added each live file.
	placedBy map[uint64]int
	// Per step: installs that must be undone and cannot be, and
	// undoable's answers.
	stuck, covers map[int]bool
}

// planRecovery plans recovery from the manifest's edits and valid, the
// table-validity oracle, which it asks at most once per table: first
// about the fully applied version's files in lookup order, then about
// what each undo needs.
func planRecovery(edits []*version.VersionEdit, valid func(num uint64) bool) recoveryPlan {
	known := make(map[uint64]bool)
	p := &planner{edits: edits, undone: make([]bool, len(edits))}
	p.valid = func(num uint64) bool {
		if _, seen := known[num]; !seen {
			known[num] = valid(num)
		}
		return known[num]
	}
	v := p.replay()
	for p.step(v) {
		v = p.replay()
	}
	return p.plan(v)
}

// replay applies the edits not undone and builds their version.
func (p *planner) replay() *version.Version {
	p.placedBy = make(map[uint64]int)
	b := version.NewBuilder(&version.Version{})
	for i, e := range p.edits {
		if !p.undone[i] {
			b.Apply(e)
			for _, nf := range e.NewFiles {
				p.placedBy[nf.Meta.Number] = i
			}
		}
	}
	return b.Finish()
}

// step undoes one more install of v if the rule calls for it and
// reports whether it did.
func (p *planner) step(v *version.Version) bool {
	p.stuck, p.covers = make(map[int]bool), make(map[int]bool)
	for _, files := range v.Files {
		for _, f := range files {
			if !p.valid(f.Number) && p.undo(p.placedBy[f.Number], true) {
				return true
			}
		}
	}
	for u, e := range p.edits {
		if !p.undone[u] {
			continue
		}
		for _, df := range e.DeletedFiles {
			for _, back := range v.Files[df.Level] {
				if back.Number != df.Number {
					continue
				}
				for _, files := range v.Files[max(1, df.Level):] {
					for _, f := range files {
						if i := p.placedBy[f.Number]; i > u && overlaps(f, back) && p.undo(i, false) {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// undo undoes install i if it can and reports whether it did; lost
// says its own output is gone. An install that cannot be is stuck.
func (p *planner) undo(i int, lost bool) bool {
	if !p.stuck[i] && p.undoable(i, lost) {
		p.undone[i] = true
		return true
	}
	p.stuck[i] = true
	return false
}

// undoable reports whether install i can be undone: a flush whose own
// output is lost — unless it is the manifest's first edit, a snapshot
// no log covers — or an install whose inputs are all covered.
func (p *planner) undoable(i int, lost bool) bool {
	if len(p.edits[i].DeletedFiles) == 0 {
		return lost && i > 0
	}
	if ok, seen := p.covers[i]; seen {
		return ok
	}
	ok := true
	for _, df := range p.edits[i].DeletedFiles {
		if !ok || p.valid(df.Number) {
			continue
		}
		// The last applied edit before i that placed it, unless every
		// placer is undone; a trivial move's file is its placer's own
		// output, not consumed.
		j, placed := -1, false
		for k := i - 1; k >= 0 && j < 0; k-- {
			for _, nf := range p.edits[k].NewFiles {
				if nf.Meta.Number == df.Number {
					placed = true
					if !p.undone[k] {
						j = k
					}
				}
			}
		}
		moved := slices.ContainsFunc(p.edits[i].NewFiles, func(nf version.NewFile) bool { return nf.Meta.Number == df.Number })
		ok = placed && (j < 0 || p.undoable(j, moved))
	}
	p.covers[i] = ok
	return ok
}

func overlaps(a, b *version.FileMeta) bool {
	return keys.CompareUser(a.LargestUser(), b.SmallestUser()) >= 0 &&
		keys.CompareUser(b.LargestUser(), a.SmallestUser()) >= 0
}

// plan reports the decisions that produced v.
func (p *planner) plan(v *version.Version) recoveryPlan {
	r := recoveryPlan{version: v, superseded: make(map[uint64]bool),
		condemned: make(map[uint64]bool), needsRepair: len(p.stuck) > 0}
	live, replayFrom := v.LiveFiles(), uint64(math.MaxUint64)
	for i, e := range p.edits {
		if p.undone[i] {
			r.undone = append(r.undone, i)
			if len(e.DeletedFiles) == 0 {
				replayFrom = min(replayFrom, r.logNumber)
			}
		} else {
			r.logNumber = max(r.logNumber, e.LogNumber)
			r.nextFile = max(r.nextFile, e.NextFileNumber)
			r.lastSeq = max(r.lastSeq, e.LastSeq)
		}
		for _, nf := range e.NewFiles {
			if p.undone[i] && !live[nf.Meta.Number] {
				r.condemned[nf.Meta.Number] = true
			}
		}
		for _, df := range e.DeletedFiles {
			switch {
			case p.undone[i] && fileAtLevel(v, df.Level, df.Number):
				r.resurrected = append(r.resurrected, df)
			case !p.undone[i] && !live[df.Number] && !p.stuck[i]:
				r.superseded[df.Number] = true
			}
		}
	}
	r.logNumber = min(r.logNumber, replayFrom)
	return r
}
