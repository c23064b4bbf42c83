package sim

// SetMinLatency arms the oracle's model-latency floor, the guard a
// multi-engine Group always enforces: a Send delivering closer than lat to
// the current cycle panics.
func (n *SerialNet) SetMinLatency(lat Time) { n.minLat = lat }
