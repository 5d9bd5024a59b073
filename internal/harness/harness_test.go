package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iatsim/internal/telemetry"
)

// rowFn adapts a function that returns only a row (no telemetry) to
// Job.Fn.
func rowFn(f func() (any, error)) func(*telemetry.Registry) (any, *telemetry.Snapshot, error) {
	return func(*telemetry.Registry) (any, *telemetry.Snapshot, error) {
		row, err := f()
		return row, nil, err
	}
}

// TestRunOrderingInvariant forces jobs to finish in reverse submission
// order (later jobs sleep less) and checks that every worker count still
// reassembles the results in submission order.
func TestRunOrderingInvariant(t *testing.T) {
	const n = 16
	for _, workers := range []int{1, 2, 4, 8, 32} {
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{
				Name: fmt.Sprintf("job/%d", i),
				Fn: rowFn(func() (any, error) {
					time.Sleep(time.Duration(n-i) * time.Millisecond)
					return i * i, nil
				}),
			}
		}
		rep := Run(jobs, Options{Workers: workers})
		if rep.Failures != 0 {
			t.Fatalf("workers=%d: %d failures", workers, rep.Failures)
		}
		for i, res := range rep.Results {
			if res.Name != fmt.Sprintf("job/%d", i) || res.Row.(int) != i*i {
				t.Fatalf("workers=%d: slot %d holds %q row %v", workers, i, res.Name, res.Row)
			}
		}
	}
}

func TestPanicBecomesFailure(t *testing.T) {
	jobs := []Job{
		{Name: "ok", Fn: rowFn(func() (any, error) { return 1, nil })},
		{Name: "boom", Fn: rowFn(func() (any, error) { panic("kaboom") })},
	}
	rep := Run(jobs, Options{Workers: 4})
	if rep.Failures != 1 {
		t.Fatalf("failures = %d, want 1", rep.Failures)
	}
	if ok := rep.Results[0]; ok.Failed() || ok.Row.(int) != 1 {
		t.Fatalf("healthy job damaged: %+v", ok)
	}
	boom := rep.Results[1]
	if !boom.Failed() || boom.Row != nil {
		t.Fatalf("panicking job not failed: %+v", boom)
	}
	if !strings.Contains(boom.Err, "kaboom") || !strings.Contains(boom.Err, "panic") {
		t.Fatalf("panic message/stack missing: %q", boom.Err)
	}
	if boom.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", boom.Attempts)
	}
}

func TestRetryRecovers(t *testing.T) {
	var calls int32
	jobs := []Job{{Name: "flaky", Fn: rowFn(func() (any, error) {
		if atomic.AddInt32(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	})}}
	rep := Run(jobs, Options{Workers: 2, Retries: 2})
	if rep.Failures != 0 {
		t.Fatalf("flaky job not recovered: %+v", rep.Results[0])
	}
	if got := rep.Results[0]; got.Attempts != 3 || got.Row.(string) != "ok" {
		t.Fatalf("attempts/row = %d/%v, want 3/ok", got.Attempts, got.Row)
	}

	rep = Run([]Job{{Name: "always", Fn: rowFn(func() (any, error) {
		return nil, errors.New("nope")
	})}}, Options{Retries: 1})
	if rep.Failures != 1 || rep.Results[0].Attempts != 2 {
		t.Fatalf("exhausted retries misreported: %+v", rep.Results[0])
	}
	if rep.Results[0].Err != "nope" {
		t.Fatalf("final error = %q", rep.Results[0].Err)
	}
}

func TestEmptyAndSingleJob(t *testing.T) {
	rep := Run(nil, Options{})
	if len(rep.Results) != 0 || rep.Failures != 0 {
		t.Fatalf("empty run: %+v", rep)
	}
	rep = Run([]Job{{Name: "solo", Fn: rowFn(func() (any, error) { return 42, nil })}},
		Options{Workers: 8})
	if len(rep.Results) != 1 || rep.Results[0].Row.(int) != 42 {
		t.Fatalf("single run: %+v", rep)
	}
	if rep.Results[0].WallMS < 0 {
		t.Fatalf("negative wall time: %+v", rep.Results[0])
	}
}

// TestExclusiveRunsAlone submits the exclusive job first so both
// guarantees are visible: it keeps its submission-order slot, and it only
// starts once no parallel job is in flight.
func TestExclusiveRunsAlone(t *testing.T) {
	var running int32
	jobs := []Job{{Name: "excl", Exclusive: true, Fn: rowFn(func() (any, error) {
		if n := atomic.LoadInt32(&running); n != 0 {
			return nil, fmt.Errorf("%d parallel jobs still running", n)
		}
		return "alone", nil
	})}}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("par/%d", i), Fn: rowFn(func() (any, error) {
			atomic.AddInt32(&running, 1)
			time.Sleep(5 * time.Millisecond)
			atomic.AddInt32(&running, -1)
			return nil, nil
		})})
	}
	rep := Run(jobs, Options{Workers: 4})
	if rep.Failures != 0 {
		t.Fatalf("exclusive overlapped the pool: %+v", rep.Results[0])
	}
	if rep.Results[0].Name != "excl" || rep.Results[0].Row.(string) != "alone" {
		t.Fatalf("exclusive job lost its slot: %+v", rep.Results[0])
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	jobs := []Job{
		{Name: "a", Figure: "figX", Fn: rowFn(func() (any, error) { return nil, nil })},
		{Name: "b", Figure: "figX", Fn: rowFn(func() (any, error) { return nil, nil })},
	}
	Run(jobs, Options{Workers: 2, Progress: &buf})
	out := buf.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "2/2") {
		t.Fatalf("progress line incomplete: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("progress not terminated with newline: %q", out)
	}
}

func TestDeriveSeed(t *testing.T) {
	if s := DeriveSeed(0, "fig3/pkt=64"); s != 0 {
		t.Fatalf("base 0 must keep the canonical seed 0, got %d", s)
	}
	a := DeriveSeed(1, "fig3/pkt=64")
	b := DeriveSeed(1, "fig3/pkt=128")
	c := DeriveSeed(2, "fig3/pkt=64")
	if a == 0 || b == 0 || c == 0 {
		t.Fatalf("derived seed collided with the canonical value: %d %d %d", a, b, c)
	}
	if a == b {
		t.Fatalf("different names share a seed: %d", a)
	}
	if a == c {
		t.Fatalf("different bases share a seed: %d", a)
	}
	if DeriveSeed(1, "fig3/pkt=64") != a {
		t.Fatal("DeriveSeed is not stable")
	}
}
