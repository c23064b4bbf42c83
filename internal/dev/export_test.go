package dev

// HostWrite injects bytes on the receive side (host -> core).
func (u *UART) HostWrite(data []byte) {
	u.rx = append(u.rx, data...)
}
