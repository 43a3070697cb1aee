// Package netsim is the simulated Internet underneath vpnscope: hosts
// placed at geographic coordinates, a virtual clock, RTTs derived from
// great-circle distance, packet delivery with per-interface captures,
// client network stacks with routing tables and firewalls, and
// traceroute-able synthetic paths.
//
// The simulator is deliberately transaction-oriented: a DNS query, an
// HTTP exchange, or a ping is one RoundTrip that advances the virtual
// clock by the modeled network time. This keeps a full 62-provider study
// (about an hour of wall-clock time in the paper, ~45 minutes per
// vantage point) down to milliseconds of CPU while preserving every
// observable the paper's measurement suite consumes.
//
// Single ownership: a Network, and everything reachable from it (its
// Clock, Hosts, Stacks, and their capture sinks), belongs to exactly one
// goroutine at a time — the sequential campaign runner, or one parallel
// worker on its own replica world. Nothing here takes a lock. Parallel
// campaigns get their concurrency from independent replicas, never from
// sharing one world; the package-level sync.Pools are the only state
// shared between worlds.
package netsim

import "time"

// Clock is the simulation's virtual time source. It only moves when the
// simulation advances it; tests that "wait three minutes" for a tunnel to
// recover advance the clock rather than sleeping.
type Clock struct {
	now time.Duration // since simulation start
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time (duration since simulation start).
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative advances are ignored:
// virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d > 0 {
		c.now += d
	}
	return c.now
}

// Jump sets the clock to exactly t, backwards included (negative t
// clamps to zero). The parallel campaign executor uses it at every
// vantage-point slot boundary: a shard that runs providers out of
// global order — or a vantage point that overran its slot — must still
// open the next slot at its absolute scheduled time, or the
// virtual-time fault windows would shift with execution order.
func (c *Clock) Jump(t time.Duration) time.Duration {
	c.now = max(t, 0)
	return c.now
}
