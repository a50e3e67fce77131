package coexec

import "gpucmp/internal/metrics"

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
	devices *metrics.Keyed[DeviceCounts]
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics { return &Metrics{devices: metrics.NewKeyed[DeviceCounts](0, nil)} }

// bump applies f to device's counters.
func (m *Metrics) bump(device string, f func(*DeviceCounts)) {
	if m != nil {
		m.devices.Update(device, f)
	}
}

// Snapshot returns a copy of the counters keyed by device name.
func (m *Metrics) Snapshot() map[string]DeviceCounts {
	out := map[string]DeviceCounts{}
	if m != nil {
		m.devices.Each(func(device string, c *DeviceCounts) { out[device] = *c })
	}
	return out
}
