// Package slogx is the shared logging setup for every mcss command:
// structured key=value leveled logging on log/slog, configured from one
// flag. All cmds call Register on their FlagSet and Setup after parse, so
// a daemon log line and an experiment-harness log line read the same way.
package slogx

import (
	"flag"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Register adds the -log-level flag to fs and returns the destination
// string. Levels: debug, info (default), warn, error.
func Register(fs *flag.FlagSet) *string {
	return fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
}

// Setup installs the process-wide default logger writing key=value lines
// to w at the named level, and returns it. Unknown levels fall back to
// info with a warning on the new logger itself.
func Setup(w io.Writer, level string) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	lvl, ok := parseLevel(level)
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: lvl})
	l := slog.New(h)
	slog.SetDefault(l)
	if !ok {
		l.Warn("unknown log level, using info", "level", level)
	}
	return l
}

func parseLevel(s string) (slog.Level, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, true
	case "", "info":
		return slog.LevelInfo, true
	case "warn", "warning":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return slog.LevelInfo, false
}
