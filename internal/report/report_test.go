package report

import (
	"strings"
	"testing"

	"github.com/pubsub-systems/mcss/internal/stats"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Costs", "config", "cost $", "vms")
	tab.AddRow("naive", 123.5, 10)
	tab.AddRow("optimized", 45.25, 7)
	out := tab.String()

	for _, want := range []string{"Costs", "config", "cost $", "vms", "naive", "123.5", "optimized", "45.25", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Title, header, separator, and two data rows.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{2.0, "2"},
		{0.25, "0.25"},
		{0, "0"},
		{-1.2, "-1.2"},
	}
	for _, tc := range tests {
		if got := trimFloat(tc.in); got != tc.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tab := NewTable("ignored", "name", "value")
	tab.AddRow("plain", 1)
	tab.AddRow("with,comma", 2)
	tab.AddRow(`with"quote`, 3)
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[2] != `"with,comma",2` {
		t.Errorf("comma row = %q", lines[2])
	}
	if lines[3] != `"with""quote",3` {
		t.Errorf("quote row = %q", lines[3])
	}
}

func TestRenderSeries(t *testing.T) {
	s1 := Series{Name: "ccdf", Points: []stats.Point{{X: 1, Y: 0.5}, {X: 2, Y: 0.25}}}
	var b strings.Builder
	if err := RenderSeries(&b, "Fig 8", s1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig 8", "ccdf", "0.5", "0.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSeriesCSV(t *testing.T) {
	s := Series{Name: "a", Points: []stats.Point{{X: 10, Y: 0.1}}}
	var b strings.Builder
	if err := SeriesCSV(&b, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "a,10,0.1") {
		t.Errorf("csv = %q", b.String())
	}
}

func TestFormatMix(t *testing.T) {
	if got := FormatMix(nil); got != "(none)" {
		t.Errorf("FormatMix(nil) = %q", got)
	}
	mix := map[string]int{"c3.large": 3, "c3.8xlarge": 7, "": 1}
	if got, want := FormatMix(mix), "7×c3.8xlarge + 3×c3.large + 1×?"; got != want {
		t.Errorf("FormatMix = %q, want %q", got, want)
	}
}
