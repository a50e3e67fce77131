package coexec

import "sync"

// DeviceCounts is one device's cumulative co-execution counters, exported
// on /metrics by the server.
type DeviceCounts struct {
	Shards          uint64 // shard attempts completed (including discarded duplicates)
	Retries         uint64 // shard attempts retried after an injected/real failure
	Redistributions uint64 // shards completed here after first being tried elsewhere
	TransferErrors  uint64 // injected transfer failures observed
	Stragglers      uint64 // duplicate dispatches due to straggler reassignment
	Lost            uint64 // 1 once the device died mid-run
}

// Metrics aggregates per-device co-execution counters across runs. A nil
// *Metrics is valid and records nothing, so callers can hold one
// unconditionally (the fault.Injector convention).
type Metrics struct {
	mu      sync.Mutex
	devices map[string]*DeviceCounts
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics { return &Metrics{devices: map[string]*DeviceCounts{}} }

func (m *Metrics) bump(device string, f func(*DeviceCounts)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	c := m.devices[device]
	if c == nil {
		c = &DeviceCounts{}
		m.devices[device] = c
	}
	f(c)
	m.mu.Unlock()
}

func (m *Metrics) addShard(device string) { m.bump(device, func(c *DeviceCounts) { c.Shards++ }) }
func (m *Metrics) addRetry(device string) { m.bump(device, func(c *DeviceCounts) { c.Retries++ }) }
func (m *Metrics) addRedist(device string) {
	m.bump(device, func(c *DeviceCounts) { c.Redistributions++ })
}
func (m *Metrics) addTransfer(device string) {
	m.bump(device, func(c *DeviceCounts) { c.TransferErrors++ })
}
func (m *Metrics) addStraggler(device string) {
	m.bump(device, func(c *DeviceCounts) { c.Stragglers++ })
}
func (m *Metrics) markLost(device string) { m.bump(device, func(c *DeviceCounts) { c.Lost = 1 }) }

// Snapshot returns a copy of the counters keyed by device name.
func (m *Metrics) Snapshot() map[string]DeviceCounts {
	out := map[string]DeviceCounts{}
	if m == nil {
		return out
	}
	m.mu.Lock()
	for name, c := range m.devices {
		out[name] = *c
	}
	m.mu.Unlock()
	return out
}
