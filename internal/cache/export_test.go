package cache

// State reports the BPC state of a line.
func (c *Private) State(line uint64) string {
	if w := c.bpc.peek(line); w != nil {
		return w.st.String()
	}
	return "I"
}

// OutstandingMisses returns the number of active MSHRs.
func (c *Private) OutstandingMisses() int { return len(c.mshrs) }

// DirState reports the directory state of a line ("I", "S", "E") with the
// sharer/owner count.
func (s *Slice) DirState(line uint64) (st string, holders int) {
	r, ok := s.lines[line]
	if !ok {
		return "I", 0
	}
	switch r.st {
	case dirI:
		return "I", 0
	case dirS:
		return "S", len(r.sharers)
	default:
		return "E", 1
	}
}

func (s state) String() string {
	switch s {
	case stInvalid:
		return "I"
	case stShared:
		return "S"
	case stExclusive:
		return "E"
	case stModified:
		return "M"
	}
	return "?"
}
