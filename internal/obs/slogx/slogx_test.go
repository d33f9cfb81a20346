package slogx

import (
	"flag"
	"log/slog"
	"strings"
	"testing"
)

func TestSetupLevels(t *testing.T) {
	var b strings.Builder
	l := Setup(&b, "warn")
	l.Info("hidden")
	l.Warn("shown", "k", "v")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info line leaked at warn level: %q", out)
	}
	if !strings.Contains(out, "msg=shown") || !strings.Contains(out, "k=v") {
		t.Errorf("warn line missing key=value fields: %q", out)
	}
}

func TestSetupUnknownLevelFallsBack(t *testing.T) {
	var b strings.Builder
	l := Setup(&b, "loud")
	l.Info("still here")
	out := b.String()
	if !strings.Contains(out, "unknown log level") || !strings.Contains(out, "still here") {
		t.Errorf("fallback behavior wrong: %q", out)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, ok := parseLevel(in)
		if !ok || got != want {
			t.Errorf("parseLevel(%q) = %v, %v; want %v", in, got, ok, want)
		}
	}
	if _, ok := parseLevel("loud"); ok {
		t.Error("parseLevel(loud) succeeded, want failure")
	}
}

func TestRegister(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	lv := Register(fs)
	if err := fs.Parse([]string{"-log-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	if *lv != "debug" {
		t.Fatalf("flag value = %q, want debug", *lv)
	}
}
