package hw

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ff"
	"repro/internal/keccak"
	"repro/internal/pasta"
)

// StepMode selects how the Accelerator advances modelled time.
type StepMode int

const (
	// StepAuto uses event-driven fast-forwarding unless a per-cycle-only
	// feature (Waveform, TraceEnabled, Fault) is armed for the run.
	StepAuto StepMode = iota
	// StepCycle forces the per-cycle oracle loop for every run.
	StepCycle
	// StepEvent requests event-driven stepping. Per-cycle-only features
	// still force the oracle — they observe individual cycles, which the
	// event engine skips over by construction.
	StepEvent
)

func (s StepMode) String() string {
	switch s {
	case StepAuto:
		return "auto"
	case StepCycle:
		return "cycle"
	case StepEvent:
		return "event"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// ParseStepMode maps the CLI spelling of a stepping mode to its value.
func ParseStepMode(name string) (StepMode, error) {
	switch name {
	case "", "auto":
		return StepAuto, nil
	case "cycle":
		return StepCycle, nil
	case "event":
		return StepEvent, nil
	}
	return 0, fmt.Errorf("hw: unknown step mode %q (want auto, cycle or event)", name)
}

// evXOF is the event-time image of KeccakUnit: it emits the same word
// sequence at the same cycles, but advances per squeezed word instead of
// per clock edge. Permutations run eagerly as whole keccak.State.Permute
// calls; the cycle at which each permutation's first round would have
// executed is recorded in spans, so KeccakBusy and Permutations can be
// replayed exactly (clamped to the run's final cycle) without modelling
// the 24 individual round cycles.
type evXOF struct {
	cur, next keccak.State
	naive     bool
	sqIdx     int
	next1     int64   // cycle of the next squeeze attempt
	spans     []int64 // first-round cycle of every permutation started
}

func (x *evXOF) init(nonce, counter uint64, naive bool) {
	x.cur = keccak.State{}
	x.next = keccak.State{}
	x.naive = naive
	x.sqIdx = 0
	x.spans = x.spans[:0]

	// Absorb at cycle 0, exactly like KeccakUnit's xofAbsorb case.
	var block [keccak.Rate128]byte
	binary.BigEndian.PutUint64(block[0:8], nonce)
	binary.BigEndian.PutUint64(block[8:16], counter)
	block[16] ^= 0x1F
	block[keccak.Rate128-1] ^= 0x80
	for i := 0; i < keccak.Rate128/8; i++ {
		x.next[i] ^= binary.LittleEndian.Uint64(block[8*i : 8*i+8])
	}

	// First permutation: rounds on cycles 1..24, rotation at cycle 24,
	// first squeeze at 25. The double-buffered design starts the second
	// permutation's rounds with the first squeeze cycle; the naive design
	// cannot permute while its single buffer is being squeezed.
	x.next.Permute()
	x.spans = append(x.spans, 1)
	x.cur = x.next
	if !naive {
		x.next.Permute()
		x.spans = append(x.spans, 25)
	}
	x.next1 = 25
}

// emit returns the word squeezed at cycle next1 and advances the
// squeeze/permutation timing to the following attempt cycle, recording
// rotation and permutation spans when a 21-word batch completes.
func (x *evXOF) emit() uint64 {
	w := x.cur[x.sqIdx]
	c := x.next1
	x.sqIdx++
	if x.sqIdx < wordsPerBatch {
		x.next1 = c + 1
		return w
	}
	var rotate int64
	if x.naive {
		// Single buffer: the full 24-cycle permutation runs in place of
		// the control gap, on cycles c+1..c+24, rotation at c+24.
		x.next.Permute()
		x.spans = append(x.spans, c+1)
		rotate = c + 24
		x.cur = x.next
	} else {
		// Rotation waits for both the 5-cycle control gap and the
		// in-flight permutation (rounds run every cycle from its span
		// start, stalled squeezes included).
		rotate = c + gapCycles
		if done := x.spans[len(x.spans)-1] + 23; done > rotate {
			rotate = done
		}
		x.cur = x.next
		x.next.Permute()
		x.spans = append(x.spans, rotate+1)
	}
	x.sqIdx = 0
	x.next1 = rotate + 1
	return w
}

// finalize replays the recorded permutation spans into the busy counters,
// clamped to the run's last simulated cycle — the per-cycle loop executes
// one round per cycle from each span's start, so a span contributes
// min(24, end-start+1) KeccakBusy cycles and one Permutation iff all 24
// rounds fit.
func (x *evXOF) finalize(st *Stats, end int64) {
	for _, s := range x.spans {
		if s > end {
			continue
		}
		if s+23 <= end {
			st.KeccakBusy += 24
			st.Permutations++
		} else {
			st.KeccakBusy += end - s + 1
		}
	}
}

// evScratch holds the event engine's reusable buffers and the PASTA
// layer kernel its dispatches run on. An Accelerator is not safe for
// concurrent runs (the per-cycle path already mutates per-run state), so
// one scratch per instance suffices.
type evScratch struct {
	kern       pasta.Kernel
	xof        evXOF
	dg         *DataGen
	rc         [][2]ff.Vec
	rcFill     [][2]int
	rcDone     [][2]bool
	state      ff.Vec
	outBuf     [2]ff.Vec
	rowA, rowB ff.Vec // the kernel's row buffers
}

func newEvScratch(par pasta.Params) *evScratch {
	t, layers := par.T, par.AffineLayers()
	ev := &evScratch{
		kern:   pasta.NewKernel(par),
		dg:     NewDataGen(t),
		rc:     make([][2]ff.Vec, layers),
		rcFill: make([][2]int, layers),
		rcDone: make([][2]bool, layers),
		state:  ff.NewVec(2 * t),
		outBuf: [2]ff.Vec{ff.NewVec(t), ff.NewVec(t)},
		rowA:   ff.NewVec(t),
		rowB:   ff.NewVec(t),
	}
	for l := range ev.rc {
		ev.rc[l] = [2]ff.Vec{ff.NewVec(t), ff.NewVec(t)}
	}
	return ev
}

func (ev *evScratch) reset() {
	for l := range ev.rc {
		ev.rcFill[l] = [2]int{}
		ev.rcDone[l] = [2]bool{}
	}
}

// runEvent is the event-driven scheduler: instead of ticking every unit
// every cycle it computes the next state-changing cycle — the next
// sampler word from the batched Keccak squeeze timeline, a matrix-engine
// completion, aluDoneAt/outputDoneAt, or the controller's next eligible
// dispatch — and fast-forwards to it. The intra-cycle ordering of the
// per-cycle loop (XOF emission, then engine completion, then exactly one
// controller action) is preserved at every visited cycle, and all Stats
// counters are accounted identically, so the result is bit-identical to
// runCycle (pinned by the differential tests and FuzzAccelEventStep).
func (a *Accelerator) runEvent(nonce, counter uint64, msg ff.Vec) (Result, error) {
	t := a.par.T
	mod := a.par.Mod
	p := mod.P()
	mask := mod.Mask()
	layers := a.par.AffineLayers()

	ev := a.ev
	if ev == nil {
		ev = newEvScratch(a.par)
		a.ev = ev
	}
	ev.reset()
	ev.xof.init(nonce, counter, a.NaiveKeccak)
	xof := &ev.xof
	dg := ev.dg
	dg.reset()
	rc, rcFill, rcDone := ev.rc, ev.rcFill, ev.rcDone

	var res Result
	st := &res.Stats

	state := ev.state
	copy(state, a.key)
	layer := 0
	phase := phaseMatL

	var matReady [2]bool
	engRunning := false
	var engBusyUntil int64
	engSeedID := -1
	engHalf := 0

	// Routing position, kept as (group kind, position-in-group) so the hot
	// emission loop needs no division: kind 0/1 are the two matrix seeds,
	// 2/3 the two RC halves; elemInLayer = elemKind*t + posInGroup.
	elemKind := 0
	posInGroup := 0
	routingLayer := 0
	demandDone := false
	stalled := false
	var stallStart int64

	var aluDoneAt int64 = -1
	var outputDoneAt int64 = -1
	var ctrlEarliest int64
	var endCycle int64 = -1

	maxCycles := a.WatchdogLimit
	if maxCycles <= 0 {
		maxCycles = DefaultWatchdogLimit
	}
	horizon := maxCycles - 1 // last cycle the per-cycle loop would execute

	for {
		// Next non-emission event: a running engine completes at
		// engBusyUntil; ALU/output completions are timers; a controller
		// dispatch whose data conditions already hold fires at
		// ctrlEarliest (the per-cycle loop evaluates a phase entered at
		// cycle c no earlier than c+1).
		other := int64(math.MaxInt64)
		if engRunning {
			other = engBusyUntil
		}
		switch phase {
		case phaseMatL:
			if !engRunning && dg.Ready(2*layer) && ctrlEarliest < other {
				other = ctrlEarliest
			}
		case phaseMatR:
			if matReady[0] && !engRunning && dg.Ready(2*layer+1) && ctrlEarliest < other {
				other = ctrlEarliest
			}
		case phaseALU:
			if aluDoneAt >= 0 {
				if aluDoneAt < other {
					other = aluDoneAt
				}
			} else if matReady[0] && matReady[1] && rcDone[layer][0] && rcDone[layer][1] &&
				ctrlEarliest < other {
				other = ctrlEarliest
			}
		case phaseOutput:
			if outputDoneAt < other {
				other = outputDoneAt
			}
		}

		var now int64
		if !stalled && !demandDone && xof.next1 <= other {
			// Batched squeeze/sample/route: emit words at their exact
			// cycles until an element completes a t-group (which may
			// enable a controller dispatch), backpressure sets in, the
			// routing demand ends, or another unit's event comes due.
			if xof.next1 > horizon {
				break
			}
			bound := other
			if bound > horizon {
				bound = horizon
			}
			var drawn, kept int64
			// Hoist the squeeze cursor into locals for the batch; written
			// back below (every exit from the loop falls through to it).
			next1 := xof.next1
			sqIdx := xof.sqIdx
			for next1 <= bound {
				c := next1
				// Inline the common mid-batch squeeze; emit() handles the
				// batch-end rotation bookkeeping.
				var w uint64
				if sqIdx < wordsPerBatch-1 {
					w = xof.cur[sqIdx]
					sqIdx++
					next1 = c + 1
				} else {
					xof.next1 = c
					xof.sqIdx = sqIdx
					w = xof.emit()
					next1 = xof.next1
					sqIdx = xof.sqIdx
				}
				drawn++
				now = c
				v := w & mask
				seedPhase := elemKind < 2
				if v >= p || (seedPhase && v == 0 && dg.FillingFirstElement()) {
					continue // rejected; the squeeze cycle is lost
				}
				kept++
				if seedPhase {
					dg.Push(v)
				} else {
					half := elemKind - 2
					rc[routingLayer][half][posInGroup] = v
					if posInGroup+1 == t {
						rcFill[routingLayer][half] = t
						rcDone[routingLayer][half] = true
					}
				}
				posInGroup++
				milestone := posInGroup == t
				if milestone {
					posInGroup = 0
					elemKind++
					if elemKind == 4 {
						elemKind = 0
						routingLayer++
						if routingLayer == layers {
							demandDone = true
							break
						}
					}
				}
				if elemKind < 2 && dg.Stall() {
					// The next demanded element is a seed word but both
					// ping-pong buffers are occupied: squeezing stops at
					// the next attempt cycle until an engine Release.
					stalled = true
					stallStart = next1
					break
				}
				if milestone {
					break
				}
			}
			xof.next1 = next1
			xof.sqIdx = sqIdx
			st.SqueezeBusy += drawn
			st.WordsDrawn += drawn
			st.WordsKept += kept
		} else {
			if other > horizon {
				break
			}
			now = other
		}

		// Matrix engine completion (the per-cycle loop's step 2).
		if engRunning && engBusyUntil == now {
			engRunning = false
			matReady[engHalf] = true
			dg.releaseReuse(engSeedID)
			if stalled {
				// The release unstalls the XOF; the per-cycle loop counts
				// the release cycle itself as stalled (Tick runs before
				// completions) and resumes squeezing the cycle after.
				if stallStart <= now {
					st.XOFStalled += now - stallStart + 1
					xof.next1 = now + 1
				}
				stalled = false
			}
		}

		// Controller (step 3): at most one dispatch per visited cycle.
		if now >= ctrlEarliest {
			switch phase {
			case phaseMatL:
				if !engRunning && dg.Ready(2*layer) {
					seed := dg.Acquire(2 * layer)
					engSeedID = 2 * layer
					engHalf = 0
					ev.kern.MatVecInto(ev.outBuf[0], seed, state[:t], ev.rowA, ev.rowB)
					engBusyUntil = now + matEngineLatency(t)
					engRunning = true
					st.MatGenBusy += int64(t)
					st.MatMulBusy += int64(t)
					phase = phaseMatR
					ctrlEarliest = now + 1
				}
			case phaseMatR:
				if matReady[0] && !engRunning && dg.Ready(2*layer+1) {
					seed := dg.Acquire(2*layer + 1)
					engSeedID = 2*layer + 1
					engHalf = 1
					ev.kern.MatVecInto(ev.outBuf[1], seed, state[t:], ev.rowA, ev.rowB)
					engBusyUntil = now + matEngineLatency(t)
					engRunning = true
					st.MatGenBusy += int64(t)
					st.MatMulBusy += int64(t)
					phase = phaseALU
					ctrlEarliest = now + 1
				}
			case phaseALU:
				if aluDoneAt < 0 {
					if matReady[0] && matReady[1] && rcDone[layer][0] && rcDone[layer][1] {
						ev.kern.FinishLayer(state, ev.outBuf[0], ev.outBuf[1], rc[layer][0], rc[layer][1], layer)
						lat := int64(latRCAdd + latMix)
						if layer < a.par.Rounds {
							lat += latSbox
						}
						aluDoneAt = now + lat
						st.VecALUBusy += lat
						ctrlEarliest = now + 1
					}
				} else if now >= aluDoneAt {
					aluDoneAt = -1
					matReady[0], matReady[1] = false, false
					layer++
					if layer == layers {
						phase = phaseOutput
						outputDoneAt = now + int64(t)
						st.OutputBusy += int64(t)
					} else {
						phase = phaseMatL
					}
					ctrlEarliest = now + 1
				}
			case phaseOutput:
				if now >= outputDoneAt {
					phase = phaseDone
					endCycle = now
				}
			}
		}
		if phase == phaseDone {
			break
		}
	}

	if endCycle < 0 {
		// No event fits inside the cycle budget: the per-cycle loop would
		// have spun to maxCycles. Account the XOF activity it would have
		// seen on the way there.
		xof.finalize(st, horizon)
		if stalled && stallStart <= horizon {
			st.XOFStalled += horizon - stallStart + 1
		}
		rcReady := [2]bool{}
		if layer < layers {
			rcReady = rcDone[layer]
		}
		mWatchdogTrips.Inc()
		return Result{}, &ErrWatchdog{
			Limit: maxCycles,
			Units: UnitSnapshot{
				Cycle:         maxCycles,
				CtrlPhase:     phase.String(),
				Layer:         layer,
				Layers:        layers,
				RoutingLayer:  routingLayer,
				ElemInLayer:   elemKind*t + posInGroup,
				XOFStalls:     st.XOFStalled,
				DataGenFull:   dg.Stall(),
				MatEngineBusy: engRunning && maxCycles < engBusyUntil,
				MatOutReady:   matReady,
				RCReady:       rcReady,
			},
			Stats: *st,
		}
	}

	st.Cycles = endCycle
	xof.finalize(st, endCycle)
	publishStats(st)
	res.KeyStream = state[:t].Clone()
	if msg != nil {
		res.Ciphertext = ff.NewVec(len(msg))
		for i := range msg {
			res.Ciphertext[i] = mod.Add(msg[i], res.KeyStream[i])
		}
	}
	return res, nil
}
