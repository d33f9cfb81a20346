// Package traceio serializes workload traces in a compact line-oriented
// text format (optionally gzip-compressed), in the spirit of the tweet-rate
// dump the MCSS paper published alongside its Twitter dataset.
//
// Format (version 1):
//
//	mcss-trace 1
//	<numTopics> <numSubscribers> <numPairs>
//	<rate of topic 0>
//	...
//	<rate of topic numTopics-1>
//	<space-separated topic IDs of subscriber 0>
//	...
//	<space-separated topic IDs of subscriber numSubscribers-1>
//
// Topic and subscriber identifiers are implicit line positions, which keeps
// multi-million-pair traces small and diff-friendly. A subscriber's topic
// IDs may come in any order; the reader sorts them, and the writer writes
// them ascending. Files ending in ".gz" are transparently (de)compressed.
//
// A region-tagged workload (tracegen -regions) appends " regions" to the
// header line and exactly two extra lines after the subscriber lines: the
// space-separated per-topic publisher regions, then the per-subscriber
// delivery regions. Untagged traces are unchanged, and the header marker
// keeps back-to-back embedding (the timeline format) unambiguous.
package traceio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/pubsub-systems/mcss/internal/workload"
)

const magic = "mcss-trace 1"

// ErrBadFormat reports a malformed trace stream.
var ErrBadFormat = errors.New("traceio: malformed trace")

// Write serializes w to out in the v1 text format.
func Write(w *workload.Workload, out io.Writer) error {
	bw := bufio.NewWriterSize(out, 1<<20)
	tagged := w.HasRegions()
	marker := ""
	if tagged {
		marker = " regions"
	}
	if _, err := fmt.Fprintf(bw, "%s\n%d %d %d%s\n", magic, w.NumTopics(), w.NumSubscribers(), w.NumPairs(), marker); err != nil {
		return err
	}
	for t := 0; t < w.NumTopics(); t++ {
		bw.WriteString(strconv.FormatInt(w.Rate(workload.TopicID(t)), 10))
		bw.WriteByte('\n')
	}
	for v := 0; v < w.NumSubscribers(); v++ {
		for i, t := range w.Topics(workload.SubID(v)) {
			if i > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(strconv.FormatInt(int64(t), 10))
		}
		bw.WriteByte('\n')
	}
	if tagged {
		for t := 0; t < w.NumTopics(); t++ {
			if t > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(strconv.Itoa(w.TopicRegion(workload.TopicID(t))))
		}
		bw.WriteByte('\n')
		for v := 0; v < w.NumSubscribers(); v++ {
			if v > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString(strconv.Itoa(w.SubscriberRegion(workload.SubID(v))))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Read parses a v1 trace stream into a Workload.
func Read(in io.Reader) (*workload.Workload, error) {
	return readWorkload(newScanner(in))
}

// newScanner builds the line scanner shared by the trace and timeline
// readers, sized for multi-million-pair interest lines.
func newScanner(in io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	return sc
}

// readWorkload consumes one v1 trace (magic line included) from the
// scanner, leaving the scanner positioned after the trace so that several
// traces can be embedded back to back (the timeline format).
func readWorkload(sc *bufio.Scanner) (*workload.Workload, error) {
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty stream", ErrBadFormat)
	}
	if got := strings.TrimSpace(sc.Text()); got != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, got)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: missing header", ErrBadFormat)
	}
	var numT, numV int
	var numP int64
	tagged := false
	header := strings.Fields(sc.Text())
	if n := len(header); n == 4 && header[3] == "regions" {
		tagged = true
	} else if n != 3 {
		return nil, fmt.Errorf("%w: header %q", ErrBadFormat, sc.Text())
	}
	if _, err := fmt.Sscanf(strings.Join(header[:3], " "), "%d %d %d", &numT, &numV, &numP); err != nil {
		return nil, fmt.Errorf("%w: header %q: %v", ErrBadFormat, sc.Text(), err)
	}
	if numT < 0 || numV < 0 || numP < 0 {
		return nil, fmt.Errorf("%w: negative counts in header", ErrBadFormat)
	}

	// Allocations grow with the actual stream, never with the claimed
	// header counts — a hostile header must not be able to force a huge
	// up-front allocation (found by FuzzRead).
	rates := make([]int64, 0, clampCap(numT))
	for t := 0; t < numT; t++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: truncated at topic %d", ErrBadFormat, t)
		}
		r, err := strconv.ParseInt(strings.TrimSpace(sc.Text()), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: topic %d rate: %v", ErrBadFormat, t, err)
		}
		rates = append(rates, r)
	}

	subOff := make([]int64, 1, clampCap(numV)+1)
	subTopics := make([]workload.TopicID, 0, clampCap(int(min64(numP, 1<<40))))
	for v := 0; v < numV; v++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("%w: truncated at subscriber %d", ErrBadFormat, v)
		}
		for _, f := range strings.Fields(sc.Text()) {
			t, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: subscriber %d: %v", ErrBadFormat, v, err)
			}
			subTopics = append(subTopics, workload.TopicID(t))
		}
		subOff = append(subOff, int64(len(subTopics)))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if int64(len(subTopics)) != numP {
		return nil, fmt.Errorf("%w: header says %d pairs, stream has %d", ErrBadFormat, numP, len(subTopics))
	}
	w, err := workload.FromCSR(rates, subOff, subTopics, nil, nil)
	if err != nil || !tagged {
		return w, err
	}
	topicRegions, err := readRegionLine(sc, numT, "topic")
	if err != nil {
		return nil, err
	}
	subRegions, err := readRegionLine(sc, numV, "subscriber")
	if err != nil {
		return nil, err
	}
	w, err = w.WithRegions(topicRegions, subRegions)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return w, nil
}

// readRegionLine parses one space-separated region-index line of the
// optional trailing region section.
func readRegionLine(sc *bufio.Scanner, want int, kind string) ([]int32, error) {
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: missing %s region line", ErrBadFormat, kind)
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != want {
		return nil, fmt.Errorf("%w: %d %s regions for %d entries", ErrBadFormat, len(fields), kind, want)
	}
	regions := make([]int32, 0, clampCap(want))
	for _, f := range fields {
		r, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: %s region %q: %v", ErrBadFormat, kind, f, err)
		}
		regions = append(regions, int32(r))
	}
	return regions, nil
}

// Save writes w to path. A ".gz" suffix enables gzip compression and a
// ".bin" extension (before any ".gz") selects the v2 binary format, so
// "trace.bin.gz" is binary+gzip. The file is created or truncated.
func Save(w *workload.Workload, path string) error {
	enc := func(out io.Writer) error { return Write(w, out) }
	if isBinaryPath(path) {
		enc = func(out io.Writer) error { return WriteBinary(w, out) }
	}
	return saveFile(path, enc)
}

// Load reads a trace from path, transparently decompressing ".gz" files and
// decoding ".bin" files with the v2 binary format.
func Load(path string) (*workload.Workload, error) {
	if isBinaryPath(path) {
		return loadFile(path, ReadBinary)
	}
	return loadFile(path, Read)
}

// saveFile encodes a document with enc and writes it to path, gzipped when
// the path ends in ".gz". The whole document is encoded in memory before
// the file is created, so a document enc rejects never truncates an
// existing file.
func saveFile(path string, enc func(io.Writer) error) (err error) {
	var buf bytes.Buffer
	if err := enc(&buf); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if !strings.HasSuffix(path, ".gz") {
		_, err = f.Write(buf.Bytes())
		return err
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(buf.Bytes()); err != nil {
		return err
	}
	return gz.Close()
}

// loadFile opens path, transparently decompressing ".gz" files, and
// decodes it with dec.
func loadFile[T any](path string, dec func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	var in io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return zero, err
		}
		defer gz.Close()
		in = gz
	}
	return dec(in)
}

func isBinaryPath(path string) bool {
	return strings.HasSuffix(strings.TrimSuffix(path, ".gz"), ".bin")
}

// clampCap bounds a header-claimed element count to a safe initial slice
// capacity; the slices still grow to the real size via append.
func clampCap(n int) int {
	const maxInitial = 1 << 20
	if n < 0 {
		return 0
	}
	if n > maxInitial {
		return maxInitial
	}
	return n
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
