package sim

// CheckpointEvery returns the current checkpoint interval (doubles on
// each compaction).
func (d *Digest) CheckpointEvery() uint64 { return d.every }

// Digest returns the installed digest chain, or nil.
func (e *Engine) Digest() *Digest {
	if e.hooks == nil {
		return nil
	}
	return e.hooks.dig
}

// At returns the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event while it was
// still pending.
func (e *Event) Canceled() bool { return e.state == evCanceled }
