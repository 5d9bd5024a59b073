package core

import (
	"fmt"

	"iatsim/internal/cache"
	"iatsim/internal/policy"
	"iatsim/internal/telemetry"
)

// HealthStats counts the daemon's self-healing activity: rejected counter
// samples, mask-write retries and failures, and the degrade/re-arm cycles
// of the safe-fallback watchdog.
type HealthStats struct {
	SampleRejects uint64 // interval samples discarded by sanity checks
	WriteRetries  uint64 // extra mask-write attempts after a failure
	WriteFailures uint64 // mask writes that never verified within retries
	Degradations  uint64 // falls back to the safe static allocation
	Rearms        uint64 // watchdog re-arms of the FSM
	BackoffResets uint64 // re-arm backoff cleared by a sustained clean run
	Degraded      bool   // currently holding the safe static allocation
}

// Health returns a snapshot of the daemon's self-healing counters.
func (d *Daemon) Health() HealthStats {
	h := d.health
	h.Degraded = d.degraded
	return h
}

// sampleInsane screens one interval sample against physical plausibility,
// returning a non-empty reason when it must be rejected: glitching counters
// (zeroed, saturated, or wrapped mid-interval) produce rates no real LLC
// can sustain, or miss counts exceeding reference counts.
func (d *Daemon) sampleInsane(s intervalSample) string {
	if s.ddioHitPS > d.P.SaneRateMax || s.ddioMissPS > d.P.SaneRateMax {
		return fmt.Sprintf("ddio rate %.3g/%.3g exceeds %.3g/s", s.ddioHitPS, s.ddioMissPS, d.P.SaneRateMax)
	}
	for _, i := range d.closOrder {
		clos, g := d.groups[i].CLOS, s.perGroup[i]
		if g.RefsPS > d.P.SaneRateMax || g.MissPS > d.P.SaneRateMax {
			return fmt.Sprintf("clos %d LLC rate %.3g/%.3g exceeds %.3g/s", clos, g.RefsPS, g.MissPS, d.P.SaneRateMax)
		}
		if g.IPC > saneIPCMax {
			return fmt.Sprintf("clos %d IPC %.3g exceeds %.3g", clos, g.IPC, saneIPCMax)
		}
		if g.MissPS > g.RefsPS*1.01+d.P.ThresholdMissLowPerSec {
			return fmt.Sprintf("clos %d misses %.3g/s exceed references %.3g/s", clos, g.MissPS, g.RefsPS)
		}
	}
	return ""
}

// rejectSample records a rejected interval sample: the sample is not
// adopted as the comparison baseline (prevRates is untouched), and the bad
// streak advances toward degradation.
func (d *Daemon) rejectSample(nowNS float64, cur intervalSample, reason string) {
	d.health.SampleRejects++
	d.saneStreak = 0
	d.bumpHealth("sanity_rejects")
	d.emitHealth(telemetry.SevWarn, "sample_reject", reason)
	d.noteBad()
	d.emit(nowNS, cur, false, "sample rejected: "+reason)
}

// backoffResetFactor scales how long the daemon must run clean before the
// exponential re-arm backoff is forgiven: backoffResetFactor * rearmAfter
// consecutive clean iterations reset rearmNeed to the base requirement.
const backoffResetFactor = 8

// finishIter closes one normal iteration: a write failure during it counts
// toward degradation, a clean one resets the bad streak and — sustained
// long enough — unwinds the re-arm backoff, so an isolated fault burst far
// in the future starts from the base rearmAfter requirement again rather
// than the 8x cap a long-past flapping episode left behind.
func (d *Daemon) finishIter() {
	if d.writeFailedIter {
		d.noteBad()
		return
	}
	d.consecBad = 0
	if d.rearmNeed > 0 {
		d.cleanStreak++
		if need := backoffResetFactor * rearmAfter; d.cleanStreak >= need {
			d.rearmNeed = 0
			d.cleanStreak = 0
			d.health.BackoffResets++
			d.bumpHealth("backoff_resets")
			d.emitHealth(telemetry.SevInfo, "backoff_reset",
				fmt.Sprintf("after %d clean iterations", need))
		}
	}
}

// noteBad advances the consecutive-bad-iteration streak and degrades the
// daemon once it reaches degradeAfter.
func (d *Daemon) noteBad() {
	d.consecBad++
	d.cleanStreak = 0
	if !d.degraded && d.consecBad >= degradeAfter {
		d.enterDegraded()
	}
}

// enterDegraded is the graceful-degradation fallback: the daemon stops
// trusting its counter view, programs a conservative static DDIO
// allocation, and waits for the watchdog to see sane reads again. Repeated
// degradations back off exponentially (up to 8x rearmAfter) so a flapping
// fault source cannot make the daemon thrash.
func (d *Daemon) enterDegraded() {
	d.degraded = true
	d.consecBad = 0
	d.saneStreak = 0
	d.health.Degradations++
	if d.rearmNeed == 0 {
		d.rearmNeed = rearmAfter
	} else {
		d.rearmNeed *= 2
		if limit := 8 * rearmAfter; d.rearmNeed > limit {
			d.rearmNeed = limit
		}
	}
	d.bumpHealth("degraded_entries")
	d.ddioWays = d.P.safeDDIOWays()
	d.emitHealth(telemetry.SevWarn, "degraded",
		fmt.Sprintf("falling back to static ddio=%d ways; re-arm after %d sane samples", d.ddioWays, d.rearmNeed))
	if !d.Opts.DisableDDIOAdjust {
		d.programDDIO(cache.ContiguousMask(d.nWays-d.ddioWays, d.ddioWays))
	}
	d.state = policy.LowKeep
	// Old baselines are untrustworthy; the policy and every shadow
	// re-baseline after re-arming.
	d.pol.Reset()
	if d.shadows != nil {
		d.shadows.Reset()
	}
}

// degradedTick is one iteration under degradation: hold the safe
// allocation until rearmNeed consecutive sane samples arrive, then re-arm
// the FSM from a fresh baseline.
func (d *Daemon) degradedTick(nowNS float64, cur intervalSample) {
	d.saneStreak++
	if d.saneStreak < d.rearmNeed {
		d.emit(nowNS, cur, false, "degraded: holding safe allocation")
		return
	}
	d.degraded = false
	d.consecBad = 0
	d.saneStreak = 0
	d.health.Rearms++
	d.bumpHealth("rearms")
	d.emitHealth(telemetry.SevInfo, "rearmed", fmt.Sprintf("after %d sane samples", d.rearmNeed))
	d.state = policy.LowKeep
	// Re-adopt the re-arming sample as the comparison baseline: the
	// policy decides on it and its (warmup) decision is discarded, so the
	// next iteration compares against this sample — exactly the
	// pre-extraction "prevRates = cur" re-arm semantics. The shadows see
	// the same warmup tick and re-adopt the machine layout with it.
	s := d.sampleFor(nowNS, cur)
	d.shadowTick(s, d.pol.Decide(s))
	d.emit(nowNS, cur, false, "re-armed")
}

// programCLOS writes a CLOS mask with bounded retries and read-back
// verification, returning true once the register verifiably holds m.
// Backoff is iteration-granular: a write that exhausts its retries is
// retried naturally on the next iteration, because apply() re-programs any
// register whose read-back differs from the computed layout.
func (d *Daemon) programCLOS(clos int, m cache.WayMask) bool {
	for attempt := 0; attempt <= writeRetries; attempt++ {
		if attempt > 0 {
			d.health.WriteRetries++
			d.bumpHealth("write_retries")
		}
		if err := d.sys.SetCLOSMask(clos, m); err != nil {
			continue
		}
		if d.sys.CLOSMask(clos) == m {
			return true
		}
	}
	d.noteWriteFailure(fmt.Sprintf("clos%d=%v", clos, m))
	return false
}

// programDDIO is programCLOS for the IIO_LLC_WAYS register.
func (d *Daemon) programDDIO(m cache.WayMask) bool {
	for attempt := 0; attempt <= writeRetries; attempt++ {
		if attempt > 0 {
			d.health.WriteRetries++
			d.bumpHealth("write_retries")
		}
		if err := d.sys.SetDDIOMask(m); err != nil {
			continue
		}
		if d.sys.DDIOMask() == m {
			return true
		}
	}
	d.noteWriteFailure(fmt.Sprintf("ddio=%v", m))
	return false
}

func (d *Daemon) noteWriteFailure(detail string) {
	d.health.WriteFailures++
	d.writeFailedIter = true
	d.bumpHealth("write_failures")
	d.emitHealth(telemetry.SevWarn, "write_fail", detail)
}

// bumpHealth increments a daemon-scoped health counter (nil-safe).
func (d *Daemon) bumpHealth(name string) {
	if d.Tel != nil {
		d.Tel.Counter("daemon", "", name).Inc()
	}
}

// emitHealth publishes one self-healing event.
func (d *Daemon) emitHealth(sev telemetry.Severity, name, detail string) {
	if d.Tel == nil {
		return
	}
	d.Tel.Emit(telemetry.Event{
		TimeNS: d.nowNS, Sev: sev,
		Subsystem: "daemon", Name: name, Detail: detail,
	})
}
