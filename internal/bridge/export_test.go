package bridge

// Credits returns the current send-credit level toward dst.
func (b *Bridge) Credits(dst int) int {
	if _, ok := b.credits[dst]; !ok {
		return b.p.CreditsPerDst
	}
	return b.credits[dst]
}
