// Package cli holds what the repository's commands share: the usage-error
// class, the mapping from a command's error to its exit code and stderr
// line, and the checks run on flags before any simulation starts.
//
// A command's main is one line:
//
//	os.Exit(cli.Exit("iatd", os.Stderr, run(os.Args[1:], os.Stdout, os.Stderr)))
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// UsageError marks a bad invocation (a flag syntax error, an invalid flag
// value, an unusable output directory): Exit reports it on one line and
// returns 2, like flag.ErrHelp, instead of the exit 1 of a runtime
// failure.
type UsageError struct {
	Msg string
	// reported is set when the flag package has already printed the
	// message, and the usage after it, to the flag set's output.
	reported bool
}

func (e UsageError) Error() string { return e.Msg }

// Usagef returns a UsageError with a formatted message.
func Usagef(format string, a ...any) error {
	return UsageError{Msg: fmt.Sprintf(format, a...)}
}

// Parse parses args into fs, which must use flag.ContinueOnError. A
// syntax error comes back as a UsageError that fs has already printed,
// with the usage, so Exit does not print it a second time.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return UsageError{Msg: err.Error(), reported: true}
}

// Exit maps a command's error to its exit code and reports the error on
// stderr as one "<name>: <error>" line:
//
//   - nil: 0;
//   - flag.ErrHelp: 2, silently (the flag package printed the usage);
//   - a UsageError: 2 (silently when Parse's flag set printed it);
//   - an error with an ExitCode() int method: that code;
//   - anything else: 1.
func Exit(name string, stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, flag.ErrHelp) {
		return 2
	}
	code := 1
	var ue UsageError
	var coded interface{ ExitCode() int }
	switch {
	case errors.As(err, &ue):
		if ue.reported {
			return 2
		}
		code = 2
	case errors.As(err, &coded):
		code = coded.ExitCode()
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return code
}

// PositiveFinite reports whether v is positive and v*unit is finite (a
// span in seconds must still be finite in nanoseconds). NaN fails the
// comparison.
func PositiveFinite(v, unit float64) bool { return v > 0 && !math.IsInf(v*unit, 1) }

// EnsureWritableDir creates dir if needed and probes that files can
// actually be created in it, so a typo'd or read-only output directory is
// caught before the simulation runs rather than when its files are
// written at the end.
func EnsureWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}
