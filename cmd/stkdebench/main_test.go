package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,4,16")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 16}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "a", "1,,2", "1;2"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) should fail", bad)
		}
	}
}

func TestWriteReportJSON(t *testing.T) {
	rep := &bench.Report{Exp: "fig8", Title: "t", Rows: []bench.Row{
		{Instance: "X", Algo: "pb-sym-dr", Threads: 2, Seconds: 0.5, Speedup: 2},
	}}
	name := filepath.Join(t.TempDir(), "BENCH_fig8.json")
	err := writeReport(name, rep, func(f *os.File) error {
		return bench.WriteJSON(f, rep, bench.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stkde-bench/v1", "pb-sym-dr", "\"experiment\": \"fig8\""} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trajectory file missing %q:\n%s", want, data)
		}
	}
}
