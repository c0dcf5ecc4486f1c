package main

import (
	"sync/atomic"
	"time"

	"configvalidator/internal/entity"
)

// ioCounts accumulates entity-access work over every wrapped entity of a
// traced window. The counts repeat exactly from run to run; the time does
// not.
type ioCounts struct {
	reads, bytes, walks atomic.Int64
	// ioNS is time spent inside ReadFile, Stat and Walk, excluding the
	// time Walk spends in its visitor callback (that is the caller's work).
	ioNS atomic.Int64
}

// ioEntity wraps an entity passed into the real run, counting and timing
// every file access the program makes. ReadFile and Stat calls become
// spans under the entity's currently open span.
type ioEntity struct {
	entity.Entity
	counts *ioCounts
	tr     *tracer
	group  int64
	// parent is the key of the span covering the entity's current pass
	// through the program; the feeder sets it before handing the entity
	// over.
	parent atomic.Uint64
}

func (e *ioEntity) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	data, err := e.Entity.ReadFile(path)
	end := time.Now()
	e.counts.reads.Add(1)
	e.counts.bytes.Add(int64(len(data)))
	e.counts.ioNS.Add(int64(end.Sub(start)))
	e.tr.record(0, e.parent.Load(), e.group, "entity.read", start, end)
	return data, err
}

func (e *ioEntity) Stat(path string) (entity.FileInfo, error) {
	start := time.Now()
	fi, err := e.Entity.Stat(path)
	end := time.Now()
	e.counts.ioNS.Add(int64(end.Sub(start)))
	e.tr.record(0, e.parent.Load(), e.group, "entity.stat", start, end)
	return fi, err
}

// Walk is counted and timed but not recorded as a span: its visitor runs
// the caller's per-file work, so a walk span would enclose its own parent's
// work. Its own time goes into ioNS.
func (e *ioEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	start := time.Now()
	var inVisitor time.Duration
	err := e.Entity.Walk(root, func(fi entity.FileInfo) error {
		t := time.Now()
		ferr := fn(fi)
		inVisitor += time.Since(t)
		return ferr
	})
	e.counts.walks.Add(1)
	e.counts.ioNS.Add(int64(time.Since(start) - inVisitor))
	return err
}
