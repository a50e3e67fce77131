package bench

import (
	"crypto/sha256"
	"fmt"
)

// ResetHostMemo empties the host-data memo and zeroes its build count.
func ResetHostMemo() {
	hostMemo.Lock()
	defer hostMemo.Unlock()
	hostMemo.slots = map[string]hostSlot{}
	hostMemo.builds = 0
}

// HostMemo returns how many times a builder has run since ResetHostMemo,
// and a digest of every slot's shape and data by benchmark name.
func HostMemo() (builds int, digests map[string][32]byte) {
	hostMemo.Lock()
	defer hostMemo.Unlock()
	digests = make(map[string][32]byte, len(hostMemo.slots))
	for name, s := range hostMemo.slots {
		// %v prints every field, unexported ones too, and floats in their
		// shortest round-tripping form, so a changed word changes the digest.
		digests[name] = sha256.Sum256([]byte(fmt.Sprintf("%v %v", s.shape, s.data)))
	}
	return hostMemo.builds, digests
}
