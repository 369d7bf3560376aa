package netsim

import (
	"math/rand"
	"time"
)

// A DelayModel samples per-datagram one-way link delays. Implementations
// must be safe for use from a single goroutine at a time; the Network
// serializes sampling per delivery shard internally.
type DelayModel interface {
	// Sample returns the (virtual) one-way delay for one datagram.
	Sample(r *rand.Rand) time.Duration
	// Mean returns the expected delay, used for reporting.
	Mean() time.Duration
}

type constantDelay struct{ d time.Duration }

func (c constantDelay) Sample(*rand.Rand) time.Duration { return c.d }
func (c constantDelay) Mean() time.Duration             { return c.d }

// Constant returns a model with a fixed one-way delay.
func Constant(d time.Duration) DelayModel { return constantDelay{d} }

type uniformDelay struct{ lo, hi time.Duration }

func (u uniformDelay) Sample(r *rand.Rand) time.Duration {
	if u.hi <= u.lo {
		return u.lo
	}
	return u.lo + time.Duration(r.Int63n(int64(u.hi-u.lo)))
}
func (u uniformDelay) Mean() time.Duration { return (u.lo + u.hi) / 2 }

// Uniform returns a model drawing delays uniformly from [lo, hi).
func Uniform(lo, hi time.Duration) DelayModel { return uniformDelay{lo, hi} }

type spikeDelay struct {
	base  DelayModel
	prob  float64
	spike time.Duration
}

func (s spikeDelay) Sample(r *rand.Rand) time.Duration {
	d := s.base.Sample(r)
	if r.Float64() < s.prob {
		d += s.spike
	}
	return d
}
func (s spikeDelay) Mean() time.Duration {
	return s.base.Mean() + time.Duration(float64(s.spike)*s.prob)
}

// Spiky wraps base so that with probability prob a datagram suffers an
// additional fixed spike delay, modelling transient congestion.
func Spiky(base DelayModel, prob float64, spike time.Duration) DelayModel {
	return spikeDelay{base: base, prob: prob, spike: spike}
}

// LAN models a same-building link. LAN and WAN are the canonical delay
// profiles, order-of-magnitude representative of the paper's setting:
// processes "in the same building in Pasadena" and a peer across the
// country (§2.2).
func LAN() DelayModel { return Uniform(200*time.Microsecond, 800*time.Microsecond) }

// WAN models a cross-country Internet path (e.g. Caltech to Tennessee).
func WAN() DelayModel {
	return Spiky(Uniform(30*time.Millisecond, 50*time.Millisecond), 0.02, 120*time.Millisecond)
}
