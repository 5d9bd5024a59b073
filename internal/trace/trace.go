// Package trace streams the IAT daemon's iterations as a CSV time series:
// cmd/iatd -trace writes one row per control-loop pass (state, DDIO ways
// and every CLOS mask), so any external tool can plot a run. Fig. 11's
// CSV does not come from here: it is exp.RunFig11's rows written by
// exp.WriteRowsCSV.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"iatsim/internal/core"
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

// Record appends one iteration.
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

// Flush drains buffered rows to the underlying writer.
func (t *Writer) Flush() error {
	t.csv.Flush()
	return t.csv.Error()
}
