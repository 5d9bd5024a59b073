package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"text/tabwriter"
)

// WriteRowsCSV writes any slice of flat row structs (the Fig*Row /
// Ablation*Row types this package returns) as CSV: one column per exported
// field, named by the field name. Nested or reference-typed fields are
// skipped, so only plottable scalars land in the file.
func WriteRowsCSV(w io.Writer, rows any) error {
	cw := csv.NewWriter(w)
	if err := walkRows(rows, cw.Write); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// writeRowsTable prints title and then rows as an aligned text table with
// WriteRowsCSV's columns, header and cells, right-aligned. A nil writer or
// an empty slice prints nothing. Every runner's stdout table is this call.
func writeRowsTable(w io.Writer, title string, rows any) {
	if w == nil {
		return
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	err := walkRows(rows, func(cells []string) error {
		if title != "" {
			fmt.Fprintln(w, title)
			title = ""
		}
		for _, c := range cells {
			fmt.Fprint(tw, c, "\t")
		}
		fmt.Fprintln(tw)
		return nil
	})
	if err != nil {
		panic(err) // a runner passed something other than a row slice
	}
	tw.Flush()
}

// walkRows is the column walk both renderers share: it calls emit with
// the header and then with each row's cells, one per exported scalar
// field. An empty slice emits nothing. emit's slice is reused between
// calls.
func walkRows(rows any, emit func(cells []string) error) error {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return fmt.Errorf("exp: row renderer wants a slice, got %T", rows)
	}
	if v.Len() == 0 {
		return nil
	}
	elem := v.Index(0).Type()
	if elem.Kind() != reflect.Struct {
		return fmt.Errorf("exp: row renderer wants a slice of structs, got %T", rows)
	}
	var cols []int
	var cells []string
	for i := 0; i < elem.NumField(); i++ {
		f := elem.Field(i)
		if !f.IsExported() || !scalarKind(f.Type.Kind()) {
			continue
		}
		cols = append(cols, i)
		cells = append(cells, f.Name)
	}
	if err := emit(cells); err != nil {
		return err
	}
	for r := 0; r < v.Len(); r++ {
		for c, i := range cols {
			cells[c] = formatScalar(v.Index(r).Field(i))
		}
		if err := emit(cells); err != nil {
			return err
		}
	}
	return nil
}

// scalarKind reports whether a field kind renders as a single CSV cell.
func scalarKind(k reflect.Kind) bool {
	switch k {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

func formatScalar(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.String:
		return v.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Stringer-typed ints (State, Placement-likes) render readably.
		if s, ok := v.Interface().(fmt.Stringer); ok {
			return s.String()
		}
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		// Stringer-typed uints (cache.WayMask) render as way bitmaps.
		if s, ok := v.Interface().(fmt.Stringer); ok {
			return s.String()
		}
		return strconv.FormatUint(v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', 8, 64)
	}
	return ""
}

// SaveRowsCSV writes rows to dir/name.csv, creating dir as needed.
func SaveRowsCSV(dir, name string, rows any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	err = WriteRowsCSV(f, rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
