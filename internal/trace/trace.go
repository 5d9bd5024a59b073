// Package trace renders the daemon's telemetry event stream as CSV time
// series — notably the Fig. 11 allocation timeline cmd/experiments
// regenerates — so any external tool can plot a run.
//
// The writer is a thin renderer: the daemon publishes one "iteration"
// event per control-loop pass on its telemetry sink (core.Daemon.Tel),
// with the full core.IterationInfo as the event payload, and this
// package formats those payloads. Record remains usable directly as the
// daemon's OnIteration callback for streaming runs whose event volume
// exceeds any bounded ring.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"iatsim/internal/core"
	"iatsim/internal/telemetry"
)

// Writer streams IAT iteration records as CSV. The CLOS column set is
// fixed by the first record (ascending CLOS ids); the header is derived
// from it rather than tracked as separate state.
type Writer struct {
	csv  *csv.Writer
	clos []int // CLOS column order; nil until the header row is written
}

// NewWriter wraps w. Flush must be called to drain buffered rows.
func NewWriter(w io.Writer) *Writer {
	return &Writer{csv: csv.NewWriter(w)}
}

// header emits the column row, fixing the CLOS column order from the
// first record.
func (t *Writer) header(info core.IterationInfo) error {
	cols := []string{"time_s", "state", "stable", "action", "ddio_ways", "ddio_mask", "ddio_hit_ps", "ddio_miss_ps"}
	t.clos = make([]int, 0, len(info.Masks))
	for _, m := range info.Masks {
		t.clos = append(t.clos, m.CLOS)
	}
	for _, clos := range t.clos {
		cols = append(cols, fmt.Sprintf("clos%d_mask", clos))
	}
	return t.csv.Write(cols)
}

// Record appends one iteration. Safe to use as a core.Daemon OnIteration
// callback via t.Hook().
func (t *Writer) Record(info core.IterationInfo) error {
	if t.clos == nil {
		if err := t.header(info); err != nil {
			return err
		}
	}
	row := []string{
		strconv.FormatFloat(info.NowNS/1e9, 'f', 3, 64),
		info.State.String(),
		strconv.FormatBool(info.Stable),
		info.Action,
		strconv.Itoa(info.DDIOWays),
		info.DDIOMask.String(),
		strconv.FormatFloat(info.DDIOHitPS, 'e', 3, 64),
		strconv.FormatFloat(info.DDIOMissPS, 'e', 3, 64),
	}
	for _, clos := range t.clos {
		row = append(row, info.MaskOf(clos).String())
	}
	return t.csv.Write(row)
}

// RecordEvent renders one telemetry event: daemon "iteration" events
// (whose payload is a core.IterationInfo) become CSV rows; everything
// else — other subsystems, state transitions, mask writes — is not part
// of this time series and is skipped.
func (t *Writer) RecordEvent(ev telemetry.Event) error {
	info, ok := ev.Data.(core.IterationInfo)
	if !ok {
		return nil
	}
	return t.Record(info)
}

// RenderEvents replays an event stream (e.g. a snapshot's ring) through
// a fresh writer and flushes it — the offline path for re-deriving the
// Fig. 11 CSV from captured telemetry.
func RenderEvents(w io.Writer, evs []telemetry.Event) error {
	t := NewWriter(w)
	for _, ev := range evs {
		if err := t.RecordEvent(ev); err != nil {
			return err
		}
	}
	return t.Flush()
}

// Hook adapts the writer to the daemon's OnIteration callback, swallowing
// write errors (tracing must never perturb the control loop).
func (t *Writer) Hook() func(core.IterationInfo) {
	return func(info core.IterationInfo) { _ = t.Record(info) }
}

// Flush drains buffered rows to the underlying writer.
func (t *Writer) Flush() error {
	t.csv.Flush()
	return t.csv.Error()
}
