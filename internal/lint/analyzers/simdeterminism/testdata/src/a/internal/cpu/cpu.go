// Package cpu exercises the event-loop bans in the core model, whose
// step is the scheduler's hottest callback.
package cpu

import "time"

type core struct {
	started time.Time
	retired uint64
}

func (c *core) step() {
	c.started = time.Now() // want `time.Now in simulation core`
	go c.retire()          // want `goroutine spawned inside simulation core package cpu`
}

func (c *core) retire() { c.retired++ }
