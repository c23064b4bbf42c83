package bridge

// Credits returns the current send-credit level toward dst.
func (b *Bridge) Credits(dst int) int { return b.peers[dst].credits }

// FetchCredits issues a credit-return read toward dst.
func (b *Bridge) FetchCredits(dst int) { b.fetchCredits(dst) }
