package traceio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/pubsub-systems/mcss/internal/timeline"
	"github.com/pubsub-systems/mcss/internal/workload"
)

// Timeline format (version 1): an epoch-indexed sequence of workloads for
// the elastic control plane, serialized as a header followed by the epochs
// embedded back to back in the v1 trace text format:
//
//	mcss-timeline 1
//	<numEpochs> <epochMinutes>
//	<epoch 0 as a complete v1 trace, magic line included>
//	...
//	<epoch numEpochs-1>
//
// Embedding whole traces keeps the epoch codec identical to the single-
// workload one, so every hardening property of Read (hostile headers,
// truncation, growth bounded by the actual stream) carries over per epoch.
// Files ending in ".gz" are transparently (de)compressed.
//
// The codec's error contract is two-typed and symmetric between write and
// read: structural violations of the timeline invariants (no epochs,
// non-positive duration, epochs with unstable identifier counts) always
// surface as timeline.ErrInvalidTimeline — from WriteTimeline/SaveTimeline
// via Timeline.Validate before any byte is written, and from
// ReadTimeline/LoadTimeline via timeline.New after parsing — while
// malformed bytes on the wire surface as ErrBadFormat.

const timelineMagic = "mcss-timeline 1"

// WriteTimeline validates the timeline and serializes it to out. A
// structurally invalid timeline is rejected with timeline.ErrInvalidTimeline
// before anything is written.
func WriteTimeline(tl *timeline.Timeline, out io.Writer) error {
	if err := tl.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	if _, err := fmt.Fprintf(bw, "%s\n%d %d\n", timelineMagic, len(tl.Epochs), tl.EpochMinutes); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	for i, w := range tl.Epochs {
		if err := Write(w, out); err != nil {
			return fmt.Errorf("traceio: timeline epoch %d: %w", i, err)
		}
	}
	return nil
}

// ReadTimeline parses a timeline stream and assembles a validated
// Timeline. Malformed bytes yield ErrBadFormat; a stream that parses but
// violates the timeline invariants (identifier stability across epochs)
// yields timeline.ErrInvalidTimeline — the same error SaveTimeline would
// have rejected it with.
func ReadTimeline(in io.Reader) (*timeline.Timeline, error) {
	sc := newScanner(in)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty timeline stream", ErrBadFormat)
	}
	if got := strings.TrimSpace(sc.Text()); got != timelineMagic {
		return nil, fmt.Errorf("%w: bad timeline magic %q", ErrBadFormat, got)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: missing timeline header", ErrBadFormat)
	}
	var numEpochs int
	var epochMinutes int64
	if _, err := fmt.Sscanf(sc.Text(), "%d %d", &numEpochs, &epochMinutes); err != nil {
		return nil, fmt.Errorf("%w: timeline header %q: %v", ErrBadFormat, sc.Text(), err)
	}
	if numEpochs <= 0 || epochMinutes <= 0 {
		return nil, fmt.Errorf("%w: timeline header needs positive epochs (%d) and minutes (%d)",
			ErrBadFormat, numEpochs, epochMinutes)
	}
	// As with Read, the slice grows with the actual stream, never with the
	// claimed header count.
	epochs := make([]*workload.Workload, 0, clampCap(numEpochs))
	for e := 0; e < numEpochs; e++ {
		w, err := readWorkload(sc)
		if err != nil {
			return nil, fmt.Errorf("%w: epoch %d: %v", ErrBadFormat, e, err)
		}
		epochs = append(epochs, w)
	}
	return timeline.New(epochMinutes, epochs)
}

// SaveTimeline writes a validated timeline to path; a ".gz" suffix enables
// gzip.
func SaveTimeline(tl *timeline.Timeline, path string) error {
	if err := tl.Validate(); err != nil {
		return err
	}
	return saveFile(path, func(out io.Writer) error { return WriteTimeline(tl, out) })
}

// LoadTimeline reads a validated timeline from path, transparently
// decompressing ".gz" files.
func LoadTimeline(path string) (*timeline.Timeline, error) {
	return loadFile(path, ReadTimeline)
}
