// Package cli carries the plumbing the cmd/* binaries share: a root
// context wired to SIGINT/SIGTERM and an optional -timeout, the exit-code
// mapping that turns a cancelled context into a clean "partial report"
// exit instead of a mid-solve kill, and the loaders behind the common
// input flags (-trace/-dataset, -diurnal, -topology) and -metrics-dump.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Context returns a context cancelled by SIGINT/SIGTERM and, when timeout
// is positive, by a deadline. The signal registration is released as soon
// as the context is done, so the FIRST Ctrl-C cancels the context (the
// cooperative, partial-report path) while a SECOND Ctrl-C gets the
// default kill behavior — an escape hatch for phases that cannot poll the
// context. The returned stop function releases everything early (call it
// via defer).
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cancel := stop
	if timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, timeout)
		cancel = func() { tcancel(); stop() }
	}
	go func() {
		<-ctx.Done()
		stop() // un-register: the next signal terminates the process
	}()
	return ctx, cancel
}

// ExitCode prints err (prefixed with the command name) to w and maps it to
// a process exit code: 0 on success; 130 (the conventional SIGINT code)
// with a partial-report note when the run was interrupted; 124 when the
// -timeout deadline expired; 1 otherwise.
func ExitCode(name string, err error, w io.Writer) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(w, "%s: interrupted — exiting cleanly; output above is a partial report\n", name)
		return 130
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(w, "%s: -timeout reached — exiting cleanly; output above is a partial report\n", name)
		return 124
	default:
		fmt.Fprintf(w, "%s: %v\n", name, err)
		return 1
	}
}
