package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestParseSelectors pins the CLI selector contract: unknown selectors
// are errors (exit 2 in main), -all expands to every figure and table,
// and the normalised selector list recorded in the manifest is sorted.
func TestParseSelectors(t *testing.T) {
	if _, _, err := parseSelectors("8,99", "", false, false); err == nil {
		t.Fatal("unknown figure 99 should be rejected")
	}
	if _, _, err := parseSelectors("", "7", false, false); err == nil {
		t.Fatal("unknown table 7 should be rejected")
	}

	want, selectors, err := parseSelectors("8", "1", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !want["fig8"] || !want["tab1"] || len(want) != 2 {
		t.Fatalf("want = %v", want)
	}
	if !reflect.DeepEqual(selectors, []string{"fig8", "tab1"}) {
		t.Fatalf("selectors = %v, want sorted [fig8 tab1]", selectors)
	}

	all, _, err := parseSelectors("", "", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(validFigs)+len(validTabs) {
		t.Fatalf("-all expanded to %d selectors, want %d", len(all), len(validFigs)+len(validTabs))
	}
}

// FuzzParseSelectors feeds arbitrary -fig/-tab strings and -all/-ablations
// flags to the parser: it either rejects them or returns only known
// selectors, sorted, matching its want set, and it never panics.
func FuzzParseSelectors(f *testing.F) {
	f.Add("8", "1", false, false)
	f.Add("12,13,14", "", false, true)
	f.Add(" 3 ,,4", "2,", true, false)
	f.Add("99", "", false, false)
	f.Add("", "7,1", false, false)
	known := map[string]bool{}
	for _, v := range validFigs {
		known["fig"+v] = true
	}
	for _, v := range validTabs {
		known["tab"+v] = true
	}
	for _, v := range ablationSelectors {
		known[v] = true
	}
	f.Fuzz(func(t *testing.T, figs, tabs string, all, ablations bool) {
		want, selectors, err := parseSelectors(figs, tabs, all, ablations)
		if err != nil {
			return
		}
		if !sort.StringsAreSorted(selectors) || len(selectors) != len(want) {
			t.Fatalf("selectors %v are unsorted or disagree with want %v", selectors, want)
		}
		for i, s := range selectors {
			if !known[s] || !want[s] || (i > 0 && selectors[i-1] == s) {
				t.Fatalf("selector %q: unknown, missing from want or repeated (%v)", s, selectors)
			}
		}
		for s := range known {
			isAbl := strings.HasPrefix(s, "abl-")
			if (all && !isAbl || ablations && isAbl) && !want[s] {
				t.Fatalf("-all %v -ablations %v left out %q: %v", all, ablations, s, selectors)
			}
		}
	})
}
