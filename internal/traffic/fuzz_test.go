package traffic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadJSON checks the load parser never panics and that everything it
// accepts round-trips.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"flows":[{"id":1,"size":5,"src":0,"dst":2,"routes":[[0,1,2]]}]}`)
	f.Add(`{"flows":[]}`)
	f.Add(`{`)
	f.Add(`{"flows":[{"id":1,"size":-5,"src":0,"dst":2,"routes":[[0,2]]}]}`)
	f.Add(`{"flows":[{"id":1,"size":5,"src":0,"dst":2,"routes":[[0]],"weight_hops":99}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		load, err := ReadJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parses must re-serialize and re-parse identically in
		// flow count and packet totals.
		var buf bytes.Buffer
		if err := load.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted load failed to serialize: %v", err)
		}
		again, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if len(again.Flows) != len(load.Flows) || again.TotalPackets() != load.TotalPackets() {
			t.Fatal("round trip changed the load")
		}
	})
}

// FuzzStreamDecode checks the streaming trace decoder (both the JSONL and
// binary encodings, plus the classic-document fallback of ReadAny) never
// panics on hostile input, and that every load it accepts, in any of the
// three encodings, re-encodes to binary and decodes back identically.
func FuzzStreamDecode(f *testing.F) {
	seedFlows := []Flow{
		{ID: 0, Size: 5, Src: 0, Dst: 2, Routes: []Route{{0, 1, 2}, {0, 3, 2}}, WeightHops: 2},
		{ID: 1, Size: 1, Src: 3, Dst: 1, Routes: []Route{{3, 1}}},
	}
	for _, format := range []StreamFormat{FormatJSONL, FormatBinary} {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf, format)
		for i := range seedFlows {
			if err := sw.Write(&seedFlows[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(binaryMagic)
	f.Add(append(append([]byte{}, binaryMagic...), "\x01\xff\xff\xff\xff\x7f"...))
	f.Add(mhsb1Stream())
	f.Add([]byte(`{"format":"mhs-flows/v1"}` + "\n" + `{"id":0,"size":1,"src":0,"dst":1,"routes":[[0,1]]}` + "\n"))
	f.Add([]byte(`{"flows":[{"id":1,"size":5,"src":0,"dst":2,"routes":[[0,1,2]]}]}`))
	f.Add([]byte(`{"flows":[{"id":1,"size":-5,"src":0,"dst":2,"routes":[[0,2]]}]}`))
	f.Add(newlineFreeInput())
	f.Add(oversizedRecordInput())
	f.Fuzz(func(t *testing.T, data []byte) {
		load, err := ReadAny(bytes.NewReader(data))
		if bytes.HasPrefix(data, binaryMagic) {
			// The windowed decoder accepts, and rejects in the same words,
			// exactly what the byte-at-a-time one did.
			want, werr := refReadBinary(data[len(binaryMagic):])
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("decode error %v, the reference decoder's %v", err, werr)
			}
			if err == nil && !reflect.DeepEqual(load.Flows, want) && len(load.Flows)+len(want) > 0 {
				t.Fatalf("decoded %+v, the reference decoder %+v", load.Flows, want)
			}
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf, FormatBinary)
		for i := range load.Flows {
			if werr := sw.Write(&load.Flows[i]); werr != nil {
				t.Fatalf("accepted flow %+v does not re-encode: %v", load.Flows[i], werr)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadAny(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again.Flows) != len(load.Flows) || again.TotalPackets() != load.TotalPackets() {
			t.Fatal("binary round trip changed the load")
		}
	})
}

// refReadBinary is the binary record decoder as it was before it read from a
// window: binary.ReadUvarint on a byte reader and a fresh Flow per record,
// followed by the checks Next and Store.Append apply. Kept as the reference
// FuzzStreamDecode compares against.
func refReadBinary(body []byte) ([]Flow, error) {
	br := bytes.NewReader(body)
	var flows []Flow
	store := NewStore(0, 0)
	for {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, errors.New("traffic: flow stream truncated (missing end record)")
		}
		switch kind {
		case recEnd:
			return flows, nil
		case recFlow:
		default:
			return nil, fmt.Errorf("traffic: flow stream: unknown record type 0x%02x", kind)
		}
		u := func(dst *int, max uint64, what string) error {
			if err != nil {
				return err
			}
			v, rerr := binary.ReadUvarint(br)
			if rerr != nil {
				err = fmt.Errorf("traffic: flow stream truncated reading %s", what)
			} else if v > max {
				err = fmt.Errorf("traffic: flow stream: %s %d out of range", what, v)
			} else {
				*dst = int(v)
			}
			return err
		}
		var f Flow
		var nroutes int
		if u(&f.ID, 1<<31-1, "id") != nil || u(&f.Size, 1<<31-1, "size") != nil ||
			u(&f.Src, 1<<31-1, "src") != nil || u(&f.Dst, 1<<31-1, "dst") != nil ||
			u(&f.WeightHops, MaxRouteLen, "weight_hops") != nil || u(&nroutes, maxStreamRoutes, "route count") != nil {
			return nil, err
		}
		for i := 0; i < nroutes; i++ {
			var nn int
			if u(&nn, maxStreamNodes, "route length") != nil {
				return nil, err
			}
			r := make(Route, nn)
			for j := range r {
				if u(&r[j], 1<<31-1, "route node") != nil {
					return nil, err
				}
			}
			f.Routes = append(f.Routes, r)
		}
		if err := checkStreamFlow(&f); err != nil {
			return nil, err
		}
		if err := store.Append(&f); err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}
}

// FuzzReadDemandCSV checks the CSV parser never panics and only accepts
// square matrices of finite non-negative values.
func FuzzReadDemandCSV(f *testing.F) {
	f.Add("0,1\n2,0")
	f.Add("# comment\n1,2,3\n4,5,6\n7,8,9\n")
	f.Add("")
	f.Add("1,x\n2,3")
	f.Add("1e309,0\n0,0")
	f.Add("NaN,1\n1,0")
	f.Add("0,-3\n1,0")
	f.Add("0,Inf\n1,0")
	f.Fuzz(func(t *testing.T, data string) {
		m, err := ReadDemandCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		if len(m) == 0 {
			t.Fatal("accepted an empty matrix")
		}
		for _, row := range m {
			if len(row) != len(m) {
				t.Fatal("accepted a non-square matrix")
			}
			for _, v := range row {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted demand %v", v)
				}
			}
		}
	})
}
