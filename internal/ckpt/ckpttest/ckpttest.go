// Package ckpttest hand-builds snapshot files for tests: the envelope
// written out field by field, independent of ckpt.Write, so a test can seal
// a payload, a version or a kind that ckpt itself would never produce.
package ckpttest

import (
	"crypto/sha256"
	"encoding/binary"

	"smappic/internal/ckpt"
)

// Seal wraps payload in the snapshot envelope: magic, version, kind,
// payload length, payload, SHA-256 over everything prior.
func Seal(version uint32, kind ckpt.Kind, payload []byte) []byte {
	b := []byte("SMCK")
	b = binary.LittleEndian.AppendUint32(b, version)
	b = append(b, byte(kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}
