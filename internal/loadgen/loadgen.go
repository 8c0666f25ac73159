// Package loadgen is a seeded, deterministic open-loop load generator
// for the KV server workload. It produces a complete request schedule up
// front: Poisson arrival times on the virtual-cycle timeline (so the
// measurement cannot suffer coordinated omission — a stalled server does
// not slow the arrival of further requests), Zipfian key popularity with
// configurable skew, an op mix with per-key version churn, session churn
// that retires and replaces key ranges, and three traffic phases — steady,
// burst (the arrival rate multiplied), and shifted (the hot set rotated
// onto formerly cold keys, a diurnal phase change).
//
// Determinism contract: the schedule is a pure function of Config. All
// randomness comes from a private splitmix64 stream seeded by Config.Seed
// — no time.Now, no global rand, no math/rand (whose stream is not
// guaranteed stable across Go releases) — so golden tests can pin exact
// arrival times and key frequencies.
package loadgen

import (
	"fmt"
	"math"
	"sort"
)

// Op is a request kind.
type Op uint8

// The request kinds. Gets on absent keys are read-through fills (the
// store inserts the value), so a cache population emerges from traffic.
const (
	// OpGet reads a key (filling it on a miss, object-cache style).
	OpGet Op = iota
	// OpSet overwrites a key with a fresh value version; the previous
	// version becomes garbage (per-key version churn).
	OpSet
	// OpDelete unlinks a key. Session churn emits bursts of deletes for
	// a retired key range; the mix also carries a small random fraction.
	OpDelete
	// OpScan reads a run of keys in key order starting at Key.
	OpScan

	// NumOps is the number of request kinds.
	NumOps = 4
)

// String names the op for metrics labels and reports.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	default:
		return "unknown"
	}
}

// PhaseNames are the traffic phases in schedule order.
var PhaseNames = []string{"steady", "burst", "shifted"}

// Phase indices into PhaseNames.
const (
	PhaseSteady = 0
	PhaseBurst  = 1
	PhaseShift  = 2

	// NumPhases is the number of traffic phases.
	NumPhases = 3
)

// Request is one scheduled request. Keys encode a generation so session
// churn can retire a key range: Key = generation*Keys + slot, where slot
// in [0, Keys) is the stable identity (and the sharding domain — Key mod
// Keys is constant across generations of a slot).
//
// A schedule holds one Request per arrival, so its size is the harness's
// host memory: 24 bytes, with every field at the width its values need.
// What is derived is not stored: an OpScan reads ScanLen keys, and the
// deadline is Config.Deadline.
type Request struct {
	// At is the arrival time in virtual cycles (open-loop: fixed by the
	// schedule, independent of server progress).
	At uint64
	// Key is the full generation-qualified key.
	Key uint64
	// Seq is the request's index in the schedule (so a schedule holds at
	// most 2^32-1 requests).
	Seq uint32
	// Op is the request kind.
	Op Op
	// ValueWords sizes the value payload for sets and read-through fills,
	// in [ValueWordsMin, ValueWordsMax]; 0 for the other ops.
	ValueWords uint8
	// Phase indexes PhaseNames.
	Phase uint8
	// SessionRetire marks a churn-generated delete (session teardown)
	// rather than a mix delete, for reporting.
	SessionRetire bool
}

// Deadline returns r's absolute virtual-cycle deadline, At +
// DeadlineCycles, or 0 when the schedule carries no deadlines. The serving
// side arms it as a per-request allocation budget and drops a request
// still queued past it.
func (c Config) Deadline(r *Request) uint64 {
	if c.DeadlineCycles == 0 {
		return 0
	}
	return r.At + c.DeadlineCycles
}

// PhaseInfo describes one phase's slice of the schedule.
type PhaseInfo struct {
	// Name is PhaseNames[index].
	Name string `json:"name"`
	// FirstSeq/EndSeq bound the phase's requests: [FirstSeq, EndSeq).
	FirstSeq int `json:"first_seq"`
	EndSeq   int `json:"end_seq"`
	// StartAt/EndAt bound the phase on the virtual timeline.
	StartAt uint64 `json:"start_at_cycles"`
	EndAt   uint64 `json:"end_at_cycles"`
}

// Config parameterises a schedule; Generate fills every unset knob. The
// traffic's shape — skew, op mix, value sizes, burst and churn — is fixed
// by the constants below, so a schedule is named by (Seed, Keys, Requests,
// MeanGapCycles) alone.
type Config struct {
	// Seed drives the private splitmix64 stream.
	Seed int64
	// Keys is the keyspace size (slots). Default 10_000.
	Keys int
	// Requests is the total request count across all three phases.
	// Default 30_000.
	Requests int
	// MeanGapCycles is the steady-phase mean interarrival gap in virtual
	// cycles. Default 600.
	MeanGapCycles float64
	// DeadlineCycles, when positive, gives every request the absolute
	// deadline At + DeadlineCycles (see Deadline). Deadlines are derived,
	// not drawn: arming them consumes no RNG stream and changes no request,
	// so schedules with and without deadlines have identical arrivals,
	// keys, and op mixes.
	DeadlineCycles uint64
}

const (
	// zipfTheta is the popularity skew (YCSB-style, 0 = uniform).
	zipfTheta = 0.99
	// burstFactor multiplies the arrival rate during the burst phase (gaps
	// divide by it).
	burstFactor = 4
	// shiftFraction rotates the hot set by this fraction of the keyspace
	// in the shifted phase.
	shiftFraction = 0.5
	// setFraction / deleteFraction / scanFraction is the op mix; the
	// remainder are gets.
	setFraction    = 0.25
	deleteFraction = 0.02
	scanFraction   = 0.03
	// ScanLen is the keys-per-scan run length of every OpScan.
	ScanLen = 16
	// ValueWordsMin/Max bound the mixed value sizes (8-byte words).
	ValueWordsMin = 8
	ValueWordsMax = 56
	// sessionsPerRun is how many sessions (key ranges) a schedule retires:
	// one every Requests/sessionsPerRun requests, so each phase sees churn.
	sessionsPerRun = 12
	// sessionSpanDiv sizes a retired range: Keys/sessionSpanDiv slots.
	sessionSpanDiv = 32
)

func (c Config) withDefaults() Config {
	if c.Keys <= 0 {
		c.Keys = 10_000
	}
	if c.Requests <= 0 {
		c.Requests = 30_000
	}
	if c.MeanGapCycles <= 0 {
		c.MeanGapCycles = 600
	}
	return c
}

// Schedule is a complete generated request stream.
type Schedule struct {
	// Config is the (defaulted) generating configuration.
	Config Config
	// Requests are the scheduled requests in arrival order.
	Requests []Request
	// Phases describe the three phase slices.
	Phases []PhaseInfo
}

// Span returns the virtual-cycle length of the schedule (last arrival).
func (s *Schedule) Span() uint64 {
	if len(s.Requests) == 0 {
		return 0
	}
	return s.Requests[len(s.Requests)-1].At
}

// rng is a splitmix64 stream: tiny, fast, and — unlike math/rand — its
// output is pinned by this file, so golden tests survive toolchain bumps.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	// Avoid the all-zeros fixpoint-ish start for seed 0.
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x1234567887654321}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *rng) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// expGap draws an exponential interarrival gap with the given mean (the
// Poisson process), floored at 1 cycle so arrival times strictly advance.
func (r *rng) expGap(mean float64) uint64 {
	g := -mean * math.Log(1-r.float())
	if g < 1 {
		return 1
	}
	if g > math.MaxInt64 {
		return math.MaxInt64
	}
	return uint64(g)
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta by inverse CDF over an exact cumulative table.
type zipf struct {
	cum []float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), theta)
		z.cum[i] = total
	}
	return z
}

// rank draws one rank using u in [0,1).
func (z *zipf) rank(u float64) int {
	target := u * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, target)
}

// Generate produces the schedule for cfg. The same Config always yields
// a deeply equal Schedule.
func Generate(cfg Config) *Schedule {
	cfg = cfg.withDefaults()
	if uint64(cfg.Requests) > math.MaxUint32 {
		panic(fmt.Sprintf("loadgen: %d requests overflow Request.Seq", cfg.Requests))
	}
	r := newRNG(cfg.Seed)
	z := newZipf(cfg.Keys, zipfTheta)

	// slotOf maps a popularity rank to a keyspace slot through a fixed
	// multiplicative permutation, so the hot head is scattered across the
	// table rather than packed at slot 0; the shifted phase adds a
	// rotation, moving the hot set onto formerly cold slots.
	mult := 2654435761 % cfg.Keys
	for gcd(mult, cfg.Keys) != 1 {
		mult++
	}
	shift := int(shiftFraction * float64(cfg.Keys))
	slotOf := func(rank, phase int) int {
		slot := (rank * mult) % cfg.Keys
		if phase == PhaseShift {
			slot = (slot + shift) % cfg.Keys
		}
		return slot
	}

	// gen tracks each slot's current generation; session churn bumps a
	// span's generations and schedules teardown deletes of the old keys.
	gen := make([]uint32, cfg.Keys)
	keyOf := func(slot int) uint64 {
		return uint64(gen[slot])*uint64(cfg.Keys) + uint64(slot)
	}

	perPhase := cfg.Requests / NumPhases
	s := &Schedule{Config: cfg, Requests: make([]Request, 0, cfg.Requests)}
	var now uint64
	var pendingRetire []uint64 // old-generation keys awaiting teardown
	nextSpan := 0              // rotating retired-span origin

	valueWords := func() uint8 {
		return uint8(ValueWordsMin + r.intn(ValueWordsMax-ValueWordsMin+1))
	}
	// The op mix as cut points on the unit interval, accumulated in float64
	// (a constant expression would round the sum once and move the last cut
	// by an ulp).
	setCut := float64(setFraction)
	deleteCut := setCut + deleteFraction
	scanCut := deleteCut + scanFraction
	sessionEvery := cfg.Requests / sessionsPerRun
	sessionSpan := max(cfg.Keys/sessionSpanDiv, 1)

	for seq := 0; seq < cfg.Requests; seq++ {
		phase := seq / perPhase
		if phase >= NumPhases {
			phase = NumPhases - 1
		}
		gap := cfg.MeanGapCycles
		if phase == PhaseBurst {
			gap /= burstFactor
		}
		now += r.expGap(gap)

		req := Request{Seq: uint32(seq), At: now, Phase: uint8(phase)}
		switch {
		case len(pendingRetire) > 0:
			// Session teardown: deletes for the retired range drain at
			// the head of the schedule (a burst of deletes, as a real
			// session expiry produces).
			req.Op = OpDelete
			req.Key = pendingRetire[0]
			req.SessionRetire = true
			pendingRetire = pendingRetire[1:]
		default:
			u := r.float()
			rank := z.rank(r.float())
			slot := slotOf(rank, phase)
			req.Key = keyOf(slot)
			switch {
			case u < setCut:
				req.Op = OpSet
				req.ValueWords = valueWords()
			case u < deleteCut:
				req.Op = OpDelete
			case u < scanCut:
				req.Op = OpScan
			default:
				req.Op = OpGet
				req.ValueWords = valueWords() // read-through fill size
			}
		}
		s.Requests = append(s.Requests, req)

		// Session churn: retire the next key span — bump generations (so
		// fresh traffic uses new keys) and queue teardown deletes.
		if sessionEvery > 0 && (seq+1)%sessionEvery == 0 {
			start := nextSpan % cfg.Keys
			for i := 0; i < sessionSpan; i++ {
				slot := (start + i) % cfg.Keys
				pendingRetire = append(pendingRetire, keyOf(slot))
				gen[slot]++
			}
			nextSpan += sessionSpan
		}
	}

	// Phase boundary metadata.
	for p := 0; p < NumPhases; p++ {
		first := p * perPhase
		end := (p + 1) * perPhase
		if p == NumPhases-1 {
			end = cfg.Requests
		}
		info := PhaseInfo{Name: PhaseNames[p], FirstSeq: first, EndSeq: end}
		if first < len(s.Requests) {
			info.StartAt = s.Requests[first].At
		}
		if end-1 < len(s.Requests) && end > first {
			info.EndAt = s.Requests[end-1].At
		}
		s.Phases = append(s.Phases, info)
	}
	return s
}

// Validate sanity-checks a schedule: requests carry their index, arrivals
// strictly increase, and phases tile the request range.
func (s *Schedule) Validate() error {
	var prev uint64
	for i, req := range s.Requests {
		if int(req.Seq) != i {
			return fmt.Errorf("loadgen: request %d carries seq %d", i, req.Seq)
		}
		if req.At <= prev && i > 0 {
			return fmt.Errorf("loadgen: arrival %d not after its predecessor (%d <= %d)", i, req.At, prev)
		}
		prev = req.At
	}
	if len(s.Phases) != NumPhases {
		return fmt.Errorf("loadgen: %d phases, want %d", len(s.Phases), NumPhases)
	}
	next := 0
	for _, ph := range s.Phases {
		if ph.FirstSeq != next {
			return fmt.Errorf("loadgen: phase %s starts at %d, want %d", ph.Name, ph.FirstSeq, next)
		}
		next = ph.EndSeq
	}
	if next != len(s.Requests) {
		return fmt.Errorf("loadgen: phases cover %d requests, schedule has %d", next, len(s.Requests))
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
