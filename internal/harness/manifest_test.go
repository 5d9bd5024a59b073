package harness

import (
	"errors"
	"path/filepath"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest(RunOptions{
		Jobs: 8, Seed: 7, Retries: 1,
		Selectors: []string{"fig3", "tab1"}, Full: true,
	})
	rep := Run([]Job{
		{Name: "fig3/a", Figure: "fig3", Seed: 11, Fn: rowFn(func() (any, error) { return 1, nil })},
		{Name: "fig3/b", Figure: "fig3", Seed: 12, Fn: rowFn(func() (any, error) { return nil, errors.New("boom") })},
	}, Options{Workers: 2})
	m.Append(rep)
	m.Finish()

	path, err := m.Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != ManifestName {
		t.Fatalf("wrote %q, want %q", filepath.Base(path), ManifestName)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != m.RunID {
		t.Fatalf("run id %q != %q", got.RunID, m.RunID)
	}
	if got.Options.Jobs != 8 || got.Options.Seed != 7 || got.Options.Retries != 1 ||
		!got.Options.Full || len(got.Options.Selectors) != 2 {
		t.Fatalf("options mangled: %+v", got.Options)
	}
	// A run that armed no faults still records its chaos configuration,
	// so the manifest alone reproduces the CSV.
	if got.Options.Chaos != "off" || got.Options.ChaosSeed != 0 {
		t.Fatalf("chaos fields not defaulted: %+v", got.Options)
	}
	if got.TotalJobs != 2 || got.Failures != 1 || len(got.Jobs) != 2 {
		t.Fatalf("totals mangled: %+v", got)
	}
	if got.Jobs[0].Name != "fig3/a" || got.Jobs[0].Seed != 11 || got.Jobs[0].Failed() {
		t.Fatalf("job 0 mangled: %+v", got.Jobs[0])
	}
	if got.Jobs[1].Err != "boom" || got.Jobs[1].Attempts != 1 {
		t.Fatalf("job 1 mangled: %+v", got.Jobs[1])
	}
	if got.FinishedAt.Before(got.StartedAt) {
		t.Fatalf("timestamps inverted: %v .. %v", got.StartedAt, got.FinishedAt)
	}
}

func TestManifestRecordsChaosProfile(t *testing.T) {
	m := NewManifest(RunOptions{Jobs: 1, Seed: 3, Chaos: "heavy", ChaosSeed: 99})
	m.Finish()
	path, err := m.Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Options.Chaos != "heavy" || got.Options.ChaosSeed != 99 {
		t.Fatalf("chaos fields mangled: %+v", got.Options)
	}
}

func TestReadManifestErrors(t *testing.T) {
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
