// Package suppaudit is a qpvet fixture for the stale-suppression audit:
// one directive that still suppresses a diagnostic (live), one named
// directive whose excused code was since fixed, and one wildcard directive
// left behind by a refactor. The audit must flag exactly the latter two.
package suppaudit

import "time"

type stamp struct {
	at time.Time
}

// mark reads the wall clock: the call fires determinism and the trailing
// directive legitimately silences it - the audit counts it as live.
func (s *stamp) mark() {
	s.at = time.Now() //qpvet:ignore determinism -- fixture: wall-clock read, directive is live
}

// clear no longer reads the clock: its directive suppresses nothing.
func (s *stamp) clear() {
	s.at = time.Time{} //qpvet:ignore determinism -- STALE: the clock read this excused is gone
}

func (s *stamp) reset() {
	//qpvet:ignore -- STALE: wildcard left behind after a refactor
	*s = stamp{}
}
