package traffic

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func writeStream(t *testing.T, format StreamFormat, flows []Flow) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, format)
	for i := range flows {
		if err := sw.Write(&flows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamRoundTrip(t *testing.T) {
	want := storeFixtureLoad().Flows
	for _, format := range []StreamFormat{FormatJSONL, FormatBinary} {
		data := writeStream(t, format, want)
		sr := NewStreamReader(bytes.NewReader(data))
		var got []Flow
		for {
			f, err := sr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("format %d: %v", format, err)
			}
			got = append(got, f)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("format %d: round-trip mismatch\ngot  %+v\nwant %+v", format, got, want)
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	for _, format := range []StreamFormat{FormatJSONL, FormatBinary} {
		data := writeStream(t, format, nil)
		s, err := ReadStore(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("format %d: %v", format, err)
		}
		if s.Len() != 0 {
			t.Fatalf("format %d: empty stream decoded %d flows", format, s.Len())
		}
	}
}

func TestStreamBinaryTruncation(t *testing.T) {
	data := writeStream(t, FormatBinary, storeFixtureLoad().Flows)
	// Drop the end record: the reader must report truncation, not EOF.
	if _, err := ReadStore(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Fatal("truncated stream (missing end record) accepted")
	}
	// Cut mid-record.
	if _, err := ReadStore(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("mid-record truncation accepted")
	}
}

func TestStreamBinaryHostile(t *testing.T) {
	cases := map[string][]byte{
		"unknown record": append(append([]byte{}, binaryMagic...), 0x7f),
		"huge route count": func() []byte {
			b := append([]byte{}, binaryMagic...)
			b = append(b, recFlow)
			// id,size,src,dst,weightHops small...
			b = append(b, 0, 1, 0, 1, 0)
			b = append(b, 0xff, 0xff, 0xff, 0xff, 0x7f) // nroutes huge
			return b
		}(),
		"huge route length": func() []byte {
			b := append([]byte{}, binaryMagic...)
			b = append(b, recFlow)
			b = append(b, 0, 1, 0, 1, 0, 1)
			b = append(b, 0xff, 0xff, 0x7f) // route length huge
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := ReadStore(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestStreamJSONLRejects(t *testing.T) {
	header := `{"format":"mhs-flows/v1"}` + "\n"
	cases := map[string]string{
		"unknown field":  header + `{"id":0,"size":1,"src":0,"dst":1,"routes":[[0,1]],"bogus":3}` + "\n",
		"no routes":      header + `{"id":0,"size":1,"src":0,"dst":1}` + "\n",
		"degenerate":     header + `{"id":0,"size":1,"src":0,"dst":0,"routes":[[0]]}` + "\n",
		"route mismatch": header + `{"id":0,"size":1,"src":0,"dst":1,"routes":[[0,2]]}` + "\n",
		"trailing data":  header + `{"id":0,"size":1,"src":0,"dst":1,"routes":[[0,1]]} {"x":1}` + "\n",
		"not json":       header + "garbage\n",
	}
	for name, data := range cases {
		if _, err := ReadStore(strings.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Blank lines between records are tolerated.
	ok := header + "\n" + `{"id":0,"size":1,"src":0,"dst":1,"routes":[[0,1]]}` + "\n\n"
	s, err := ReadStore(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("blank-line stream: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("blank-line stream: %d flows", s.Len())
	}
}

func TestStreamHeaderSniff(t *testing.T) {
	for _, bad := range []string{"", "{}\n", `{"format":"mhs-flows/v999"}` + "\n", "MHSB1\nxx", "MHSB3\nxx",
		`{"format":"mhs-flows/v1","fromat":1}` + "\n", `{"format":"mhs-flows/v1"}}` + "\n"} {
		_, err := NewStreamReader(strings.NewReader(bad)).Next()
		if !errors.Is(err, ErrNotStream) {
			t.Errorf("input %q: err = %v, want ErrNotStream", bad, err)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// The inputs TestStreamLinesAreBounded and FuzzStreamDecode share: 2 MiB
// without a newline, and a JSONL stream whose second record line is one
// byte longer than any record the schema admits.
func newlineFreeInput() []byte { return bytes.Repeat([]byte{'{'}, 2<<20) }

func oversizedRecordInput() []byte {
	return []byte(`{"format":"mhs-flows/v1"}` + "\n" +
		`{"id":0,"size":1,"src":0,"dst":1,"routes":[[0,1]]}` + "\n" +
		strings.Repeat("x", maxJSONLRecord) + "\n")
}

// TestStreamLinesAreBounded: a JSONL line is read only as far as the
// longest one the schema admits, so input without newlines costs a buffer
// of reading, not its whole length, and an oversized record names its line.
func TestStreamLinesAreBounded(t *testing.T) {
	in := &countingReader{r: bytes.NewReader(newlineFreeInput())}
	if _, err := ReadStore(in); !errors.Is(err, ErrNotStream) {
		t.Fatalf("newline-free input: err = %v, want ErrNotStream", err)
	}
	if limit := sniffLen + 1<<16; in.n > limit {
		t.Errorf("newline-free input: read %d bytes before failing, want at most %d", in.n, limit)
	}
	_, err := ReadStore(bytes.NewReader(oversizedRecordInput()))
	if !errors.Is(err, errLongLine) || !strings.Contains(err.Error(), "line 3 ") {
		t.Errorf("oversized record: err = %v, want a line-too-long error naming line 3", err)
	}
}

// TestStreamJSONLAdmitsWidestRecord: the record-line bound is no tighter
// than the schema. The widest flow the stream decoder accepts — every
// number at MaxInt32, maxStreamRoutes routes of maxStreamNodes nodes —
// round-trips through JSONL.
func TestStreamJSONLAdmitsWidestRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("a 10 MB record")
	}
	const wide = math.MaxInt32
	f := Flow{ID: wide, Size: wide, Src: wide, Dst: wide - 1, WeightHops: MaxRouteLen,
		Routes: make([]Route, maxStreamRoutes)}
	for i := range f.Routes {
		r := make(Route, maxStreamNodes)
		for j := range r {
			r[j] = wide - 2 - j
		}
		r[0], r[len(r)-1] = f.Src, f.Dst
		f.Routes[i] = r
	}
	data := writeStream(t, FormatJSONL, []Flow{f})
	if line := bytes.IndexByte(data, '\n'); len(data)-line-1 > maxJSONLRecord {
		t.Fatalf("the widest record is %d bytes, the bound %d", len(data)-line-1, maxJSONLRecord)
	}
	got, err := NewStreamReader(bytes.NewReader(data)).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatal("the widest record did not round-trip")
	}
}

func TestReadAnyAllFormats(t *testing.T) {
	want := storeFixtureLoad()

	// Classic whole-document JSON.
	doc, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"document": doc,
		"jsonl":    writeStream(t, FormatJSONL, want.Flows),
		"binary":   writeStream(t, FormatBinary, want.Flows),
	} {
		got, err := ReadAny(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: load mismatch", name)
		}
	}
}

func TestStreamWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, FormatBinary)
	f := storeFixtureLoad().Flows[0]
	if err := sw.Write(&f); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatal("second Close wrote more bytes")
	}
	if err := sw.Write(&f); err == nil {
		t.Fatal("write after Close accepted")
	}
}

// podStream is a binary stream of about the given number of pod-fabric flows
// (ids and node numbers past one varint byte, routes of one to three hops)
// and the load it encodes.
func podStream(tb testing.TB, flows int) ([]byte, *Load) {
	tb.Helper()
	pp := DefaultPodParams(16, 16, 512)
	pp.LargePerPod = flows / 16 / 4
	pp.SmallPerPod = flows/16 - pp.LargePerPod
	pp.LargeTotal, pp.SmallTotal = max(pp.LargeTotal, pp.LargePerPod), max(pp.SmallTotal, pp.SmallPerPod)
	store, err := PodSynthetic(pp, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	load := store.Materialize(nil)
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, FormatBinary)
	for i := range load.Flows {
		if err := sw.Write(&load.Flows[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), load
}

// TestStreamBinaryWindowBoundaries: the binary decoder takes varints off a
// peeked window of the bufio buffer and ReadStore decodes every record into
// one reused flow. Whatever the reads underneath deliver — a byte at a time,
// so that every multi-byte varint straddles a refill, or 64 KiB blocks with
// records across their edges — the store must hold exactly the flows
// written, multi-route records followed by shorter ones included, and a flow
// Next returned must stay the caller's.
func TestStreamBinaryWindowBoundaries(t *testing.T) {
	data, want := podStream(t, 20_000)
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(data),
		"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
		"halves":   iotest.HalfReader(bytes.NewReader(data)),
	} {
		store, err := ReadStore(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := store.Materialize(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded load differs from the one written", name)
		}
	}
	fix := storeFixtureLoad().Flows
	store, err := ReadStore(iotest.OneByteReader(bytes.NewReader(writeStream(t, FormatBinary, fix))))
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Materialize(nil).Flows; !reflect.DeepEqual(got, fix) {
		t.Fatalf("fixture through a reused flow: got %+v", got)
	}
	sr := NewStreamReader(bytes.NewReader(writeStream(t, FormatBinary, fix)))
	first, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fix[0]) {
		t.Fatalf("a later Next overwrote an earlier result: %+v", first)
	}
	// The bytes after the end record are the caller's: ReadStore over a
	// caller's bufio.Reader leaves it just past the stream.
	br := bufio.NewReaderSize(bytes.NewReader(append(writeStream(t, FormatBinary, fix), "tail"...)), 1<<16)
	if _, err := ReadStore(br); err != nil {
		t.Fatal(err)
	}
	if rest, _ := io.ReadAll(br); string(rest) != "tail" {
		t.Fatalf("after the stream the reader holds %q, want %q", rest, "tail")
	}
}

// mhsb1Stream is one flow in the binary layout before MHSB2: its magic,
// then id 1, size 5, 0->2, weight_hops 0, the flags and redundant fields the
// flow schema has since dropped, and the route [0 1 2].
func mhsb1Stream() []byte {
	return []byte("MHSB1\n\x01\x01\x05\x00\x02\x00\x00\x00\x01\x03\x00\x01\x02\x00")
}

// TestStreamRejectsMHSB1: the binary record layout is positional, so a
// stream in the layout before MHSB2 is refused by its magic rather than read
// with its fields shifted.
func TestStreamRejectsMHSB1(t *testing.T) {
	if _, err := ReadStore(bytes.NewReader(mhsb1Stream())); !errors.Is(err, ErrNotStream) {
		t.Errorf("ReadStore: err = %v, want ErrNotStream", err)
	}
	if _, err := ReadAny(bytes.NewReader(mhsb1Stream())); err == nil {
		t.Error("ReadAny accepted an MHSB1 stream")
	}
	// The same flow in the current layout reads.
	body := mhsb1Stream()[len("MHSB1\n"):]
	body = append(body[:6:6], body[8:]...) // drop flags and redundant
	got, err := ReadAny(bytes.NewReader(append(append([]byte{}, binaryMagic...), body...)))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Flow{{ID: 1, Size: 5, Src: 0, Dst: 2, Routes: []Route{{0, 1, 2}}}}; !reflect.DeepEqual(got.Flows, want) {
		t.Fatalf("current layout read %+v, want %+v", got.Flows, want)
	}
}

// BenchmarkReadStoreBinary decodes a 100k-flow pod stream into a store:
// the benchmark's traffic.decode span at a tenth of its size.
func BenchmarkReadStoreBinary(b *testing.B) {
	data, _ := podStream(b, 100_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadStore(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// Next is next into a fresh store, read back as a flow: one record at a
// time, as the stream tests read a stream.
func (sr *StreamReader) Next() (Flow, error) {
	s := NewStore(0, 0)
	if err := sr.next(s); err != nil {
		return Flow{}, err
	}
	return s.FlowAt(0), nil
}
