package traffic

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"octopus/internal/strictjson"
)

// Streaming trace formats: loads far larger than RAM are written one flow
// record at a time by the generator and consumed incrementally by the
// schedulers' ingest path, never holding the pointer-rich document form in
// memory.
//
// Two encodings share one logical schema:
//
//   - JSONL: a header line {"format":"mhs-flows/v1"} followed by one JSON
//     flow object per line (the same field names as the classic Load
//     document). Greppable, diffable, compresses well.
//   - Binary: the magic "MHSB2\n", flow records — a tag byte and uvarint
//     fields, no length — and an end tag; about 10x smaller than JSONL.
//
// StreamReader auto-detects the encoding, and LoadAnyFile additionally
// falls back to the classic whole-document JSON load format, so every
// consumer (mhsim -load and -stats) accepts all three transparently.
// All three hold each flow to one schema, checkStreamFlow.

// StreamFormat selects a streaming trace encoding.
type StreamFormat int

const (
	// FormatJSONL writes the header line and one JSON flow per line.
	FormatJSONL StreamFormat = iota
	// FormatBinary writes the compact uvarint encoding.
	FormatBinary
)

// streamHeader is the first JSONL line identifying the stream format.
type streamHeader struct {
	Format string `json:"format"`
}

// jsonlFormatID identifies the JSONL flow-stream schema; binaryMagic the
// binary one. Bump only on incompatible layout changes.
const jsonlFormatID = "mhs-flows/v1"

var binaryMagic = []byte("MHSB2\n")

// Binary record framing: each flow record begins with recFlow; recEnd
// terminates the stream so truncation is detectable.
const (
	recFlow = 0x01
	recEnd  = 0x00
)

// Hard decode limits. Streams are hostile input (fuzzed); every count is
// bounded before any allocation sized from it.
const (
	maxStreamRoutes = 1 << 16 // routes per flow
	maxStreamNodes  = MaxRouteLen + 1

	// sniffLen bounds the JSONL header line, newline included.
	sniffLen = 256
	// maxJSONLRecord bounds a JSONL record line: the compact JSON of the
	// widest flow the schema admits — maxStreamRoutes routes of
	// maxStreamNodes nodes, every number as wide as MaxInt32 — plus room for
	// the other fields, so JSONL accepts every flow the binary encoding does.
	maxJSONLRecord = maxStreamRoutes*(maxStreamNodes*len("2147483647,")+len("[],")) + 512
)

// StreamWriter emits a flow stream in the chosen format. Close (or Flush)
// must be called to terminate the stream; the binary format writes an
// explicit end record so consumers can tell truncation from completion.
type StreamWriter struct {
	w       *bufio.Writer
	format  StreamFormat
	wrote   bool
	closed  bool
	scratch []byte
	err     error
}

// NewStreamWriter returns a writer emitting the stream header lazily on
// the first Write (or on Close, for an empty stream).
func NewStreamWriter(w io.Writer, format StreamFormat) *StreamWriter {
	return &StreamWriter{w: bufio.NewWriterSize(w, 1<<16), format: format}
}

func (sw *StreamWriter) header() {
	if sw.wrote || sw.err != nil {
		return
	}
	sw.wrote = true
	if sw.format == FormatBinary {
		_, sw.err = sw.w.Write(binaryMagic)
		return
	}
	h, _ := json.Marshal(streamHeader{Format: jsonlFormatID})
	if _, sw.err = sw.w.Write(h); sw.err == nil {
		sw.err = sw.w.WriteByte('\n')
	}
}

// Write appends one flow record. Flows outside the stream schema (see
// checkStreamFlow) are rejected without corrupting the stream.
func (sw *StreamWriter) Write(f *Flow) error {
	if sw.closed {
		return errors.New("traffic: write to closed stream")
	}
	if err := checkStreamFlow(f); err != nil {
		return err
	}
	sw.header()
	if sw.err != nil {
		return sw.err
	}
	if sw.format == FormatBinary {
		sw.scratch = appendBinaryFlow(sw.scratch[:0], f)
		_, sw.err = sw.w.Write(sw.scratch)
		return sw.err
	}
	line, err := json.Marshal(f)
	if err != nil {
		sw.err = err
		return err
	}
	if _, sw.err = sw.w.Write(line); sw.err == nil {
		sw.err = sw.w.WriteByte('\n')
	}
	return sw.err
}

// Close terminates and flushes the stream. It is idempotent.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	sw.header()
	if sw.err != nil {
		return sw.err
	}
	if sw.format == FormatBinary {
		if sw.err = sw.w.WriteByte(recEnd); sw.err != nil {
			return sw.err
		}
	}
	sw.err = sw.w.Flush()
	return sw.err
}

// appendBinaryFlow encodes one flow record onto buf.
func appendBinaryFlow(buf []byte, f *Flow) []byte {
	buf = append(buf, recFlow)
	buf = binary.AppendUvarint(buf, uint64(f.ID))
	buf = binary.AppendUvarint(buf, uint64(f.Size))
	buf = binary.AppendUvarint(buf, uint64(f.Src))
	buf = binary.AppendUvarint(buf, uint64(f.Dst))
	buf = binary.AppendUvarint(buf, uint64(f.WeightHops))
	buf = binary.AppendUvarint(buf, uint64(len(f.Routes)))
	for _, r := range f.Routes {
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		for _, v := range r {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}

// StreamReader decodes a flow stream, auto-detecting the encoding from
// the header.
type StreamReader struct {
	br     *bufio.Reader
	binary bool
	inited bool
	done   bool
	// The JSONL decoder reads a line into line, the lines read so far
	// counted in lineNo.
	line   []byte
	lineNo int
	// The binary decoder reads from win, a peeked window of br's buffer of
	// which it has consumed used bytes: one Peek and one Discard per refill,
	// not an interface call per byte.
	win  []byte
	used int
}

// NewStreamReader returns a reader over r. The format is sniffed on the
// first read.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// ErrNotStream reports that the input does not begin with a recognized
// stream header (it may be a classic whole-document JSON load).
var ErrNotStream = errors.New("traffic: not a flow stream")

// init sniffs the header.
func (sr *StreamReader) init() error {
	if sr.inited {
		return nil
	}
	sr.inited = true
	peek, err := sr.br.Peek(len(binaryMagic))
	if err == nil && bytes.Equal(peek, binaryMagic) {
		sr.br.Discard(len(binaryMagic))
		sr.binary = true
		return nil
	}
	line, err := sr.readLine(sniffLen)
	if errors.Is(err, errLongLine) {
		return fmt.Errorf("%w: header line exceeds %d bytes", ErrNotStream, sniffLen)
	}
	if err != nil && len(line) == 0 {
		return fmt.Errorf("%w: empty input", ErrNotStream)
	}
	var h streamHeader
	if jerr := strictjson.Decode(bytes.NewReader(line), &h); jerr != nil || h.Format != jsonlFormatID {
		return fmt.Errorf("%w: unrecognized header", ErrNotStream)
	}
	return nil
}

// next decodes the next flow record onto the end of s's columns, checked by
// checkStreamFlow. It returns io.EOF after the last flow; any other error
// means the stream is malformed or truncated, and leaves s unspecified.
func (sr *StreamReader) next(s *Store) error {
	if err := sr.init(); err != nil {
		return err
	}
	if sr.done {
		return io.EOF
	}
	next := sr.nextJSONL
	if sr.binary {
		next = sr.nextBinary
	}
	err := next(s)
	if err != nil {
		sr.done = true
	}
	return err
}

// errLongLine reports a JSONL line longer than the schema admits.
var errLongLine = errors.New("traffic: flow stream: line too long")

// readLine reads the next line, its newline included, into sr.line. A line
// longer than limit bytes is an error once limit bytes of it are buffered,
// so however long it really is, at most limit plus one buffer of input is
// read.
func (sr *StreamReader) readLine(limit int) ([]byte, error) {
	sr.lineNo++
	sr.line = sr.line[:0]
	for {
		frag, err := sr.br.ReadSlice('\n')
		if len(sr.line)+len(frag) > limit {
			return nil, fmt.Errorf("%w: line %d exceeds %d bytes", errLongLine, sr.lineNo, limit)
		}
		sr.line = append(sr.line, frag...)
		if err != bufio.ErrBufferFull {
			return sr.line, err
		}
	}
}

func (sr *StreamReader) nextJSONL(s *Store) error {
	for {
		line, err := sr.readLine(maxJSONLRecord)
		if errors.Is(err, errLongLine) {
			return err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			if err != nil {
				return io.EOF
			}
			continue // blank line between records
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		var f Flow
		if jerr := strictjson.Decode(bytes.NewReader(trimmed), &f); jerr != nil {
			return fmt.Errorf("traffic: flow stream: %v", jerr)
		}
		return s.Append(&f)
	}
}

// refill hands the consumed bytes back to br and peeks a window of at least
// n bytes (fewer only at the end of the input), without waiting for more
// than that to arrive.
func (sr *StreamReader) refill(n int) {
	sr.br.Discard(sr.used)
	sr.br.Peek(n)
	sr.win, _ = sr.br.Peek(sr.br.Buffered())
	sr.used = 0
}

// field decodes one varint field of at most max off the window into *dst,
// refilling it as needed, or fails in refReadBinary's words: a varint that
// overflows or that the input ends in is truncation, not a clean end.
func (sr *StreamReader) field(dst *int, max uint64, what string) error {
	v, n := binary.Uvarint(sr.win[sr.used:])
	if n == 0 {
		sr.refill(binary.MaxVarintLen64)
		v, n = binary.Uvarint(sr.win)
	}
	switch {
	case n <= 0:
		return fmt.Errorf("traffic: flow stream truncated reading %s", what)
	case v > max:
		return fmt.Errorf("traffic: flow stream: %s %d out of range", what, v)
	}
	*dst, sr.used = int(v), sr.used+n
	return nil
}

// fieldSpec is a varint field of a binary record (its header, then per route
// a length and that many nodes): the largest value it may take, its name.
type fieldSpec struct {
	max  uint64
	what string
}

var (
	header = [...]fieldSpec{
		{math.MaxInt32, "id"}, {math.MaxInt32, "size"}, {math.MaxInt32, "src"}, {math.MaxInt32, "dst"},
		{MaxRouteLen, "weight_hops"}, {maxStreamRoutes, "route count"},
	}
	routeNode = [...]fieldSpec{{math.MaxInt32, "route node"}}
)

// fields decodes len(dst) fields into dst, the k-th as spec[k] or, past
// its end, as its last. Where the window holds the most bytes they can take
// and every value is in range, one pass decodes them with no refill check;
// otherwise field decodes them one at a time.
func (sr *StreamReader) fields(dst []int, spec []fieldSpec) error {
	if w := sr.win[sr.used:]; len(w) >= len(dst)*binary.MaxVarintLen64 {
		p, k := 0, 0
		for ; k < len(dst); k++ {
			v, n := uint64(w[p]), 1
			if b := uint64(w[p+1]); v >= 0x80 && b < 0x80 {
				v, n = v&0x7f|b<<7, 2
			} else if v >= 0x80 {
				v, n = binary.Uvarint(w[p:])
			}
			if n <= 0 || v > spec[min(k, len(spec)-1)].max {
				break
			}
			dst[k], p = int(v), p+n
		}
		if k == len(dst) {
			sr.used += p
			return nil
		}
	}
	for k := range dst {
		sp := &spec[min(k, len(spec)-1)]
		if err := sr.field(&dst[k], sp.max, sp.what); err != nil {
			return err
		}
	}
	return nil
}

// nextBinary decodes one binary record straight onto the end of s's
// columns, range-checking every field once, as it is read. What
// checkStreamFlow would reject of the record is reported only once all of it
// has been read: a truncated record reads as truncated.
func (sr *StreamReader) nextBinary(s *Store) error {
	if sr.used == len(sr.win) {
		sr.refill(1)
	}
	if len(sr.win) == 0 {
		return errors.New("traffic: flow stream truncated (missing end record)")
	}
	kind := sr.win[sr.used]
	sr.used++
	switch kind {
	case recEnd:
		sr.refill(0) // leave br just past the stream
		return io.EOF
	case recFlow:
	default:
		return fmt.Errorf("traffic: flow stream: unknown record type 0x%02x", kind)
	}
	var h [len(header)]int
	if err := sr.fields(h[:], header[:]); err != nil {
		return err
	}
	s.appendHeader(h[0], h[1], h[2], h[3], h[4])
	// Of checkStreamFlow's checks, only these can fail on fields in range.
	ok := h[5] > 0
	var r [maxStreamNodes]int
	for range h[5] {
		nn := 0 // a route's length fits one byte: read it here, or field fails
		if w := sr.win[sr.used:]; len(w) > 0 && int(w[0]) <= maxStreamNodes {
			nn, sr.used = int(w[0]), sr.used+1
		} else if err := sr.field(&nn, maxStreamNodes, "route length"); err != nil {
			return err
		}
		if err := sr.fields(r[:nn], routeNode[:]); err != nil {
			return err
		}
		ok = ok && nn >= 2 && r[0] == h[2] && r[nn-1] == h[3]
		for _, v := range r[:nn] {
			s.nodes = append(s.nodes, int32(v))
		}
		s.routeOff = append(s.routeOff, int32(len(s.nodes)))
	}
	s.routeStart = append(s.routeStart, int32(len(s.routeOff)-1))
	if !ok { // checkStreamFlow names the fault
		f := s.FlowAt(s.Len() - 1)
		return checkStreamFlow(&f)
	}
	return nil
}

// checkStreamFlow is the one flow schema: the structural checks (routes
// present, non-degenerate, connecting the flow's endpoints) plus the
// numeric ranges the binary encoding can represent, so the document, JSONL
// and binary encodings accept exactly the same set of flows and every
// accepted flow re-encodes losslessly. Enforced on every decode (ReadJSON,
// next) and on encode (Write).
func checkStreamFlow(f *Flow) error {
	if f.ID < 0 || int64(f.ID) > math.MaxInt32 {
		return fmt.Errorf("traffic: flow id %d out of stream range", f.ID)
	}
	if f.Size < 0 || int64(f.Size) > math.MaxInt32 {
		return fmt.Errorf("traffic: flow %d size %d out of stream range", f.ID, f.Size)
	}
	if f.Src < 0 || f.Dst < 0 || int64(f.Src) > math.MaxInt32 || int64(f.Dst) > math.MaxInt32 {
		return fmt.Errorf("traffic: flow %d endpoints %d->%d out of stream range", f.ID, f.Src, f.Dst)
	}
	if f.WeightHops < 0 || f.WeightHops > MaxRouteLen {
		return fmt.Errorf("traffic: flow %d has invalid WeightHops %d", f.ID, f.WeightHops)
	}
	if len(f.Routes) == 0 {
		return fmt.Errorf("traffic: flow %d has no routes", f.ID)
	}
	if len(f.Routes) > maxStreamRoutes {
		return fmt.Errorf("traffic: flow %d has %d routes (max %d)", f.ID, len(f.Routes), maxStreamRoutes)
	}
	for _, rt := range f.Routes {
		if len(rt) < 2 {
			return fmt.Errorf("traffic: flow %d has a degenerate route", f.ID)
		}
		if len(rt) > maxStreamNodes {
			return fmt.Errorf("traffic: flow %d route exceeds %d hops", f.ID, MaxRouteLen)
		}
		if rt.Src() != f.Src || rt.Dst() != f.Dst {
			return fmt.Errorf("traffic: flow %d route %v does not connect %d->%d", f.ID, rt, f.Src, f.Dst)
		}
		for _, v := range rt {
			if v < 0 || int64(v) > math.MaxInt32 {
				return fmt.Errorf("traffic: flow %d route node %d out of stream range", f.ID, v)
			}
		}
	}
	return nil
}

// ReadStore consumes an entire flow stream into a columnar store whose
// columns are exactly as long as the flows they hold need. The stream is
// decoded into parts of up to 2^16 flows, which are joined once it ends: no
// column is copied as it grows.
func ReadStore(r io.Reader) (*Store, error) {
	sr := NewStreamReader(r)
	var parts []*Store
	for s, size := NewStore(1<<10, 4<<10), 1<<10; ; {
		if err := sr.next(s); errors.Is(err, io.EOF) {
			return concat(append(parts, s)), nil
		} else if err != nil {
			return nil, err
		}
		if s.Len() == size {
			parts, size = append(parts, s), min(2*size, 1<<16)
			s = NewStore(size, 4*size)
		}
	}
}

// ReadAny decodes a traffic load from any supported encoding: a binary or
// JSONL flow stream (via the columnar store, so the result shares arena
// backing), or the classic whole-document JSON load.
func ReadAny(r io.Reader) (*Load, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	// A JSONL stream starts with the header object on its own line; the
	// classic document form starts with {"flows": ...} spanning lines.
	// Sniff a bounded prefix for the header marker.
	prefix, _ := br.Peek(sniffLen)
	var h streamHeader
	i := bytes.IndexByte(prefix, '\n')
	if bytes.HasPrefix(prefix, binaryMagic) || i >= 0 && json.Unmarshal(prefix[:i], &h) == nil && h.Format == jsonlFormatID {
		s, err := ReadStore(br)
		if err != nil {
			return nil, err
		}
		return s.Materialize(nil), nil
	}
	return ReadJSON(br)
}

// LoadAnyFile reads a load from a file in any supported encoding.
func LoadAnyFile(path string) (*Load, error) { return strictjson.ReadFile(path, ReadAny) }
