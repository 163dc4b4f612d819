package sample

// Recorded returns the number of sampled post-warmup references, so the
// external tests can check a snapshot against the engine's own count.
func (e *Engine) Recorded() int { return e.recorded }
