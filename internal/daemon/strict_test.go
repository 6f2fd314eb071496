package daemon

import (
	"strings"
	"testing"

	"octopus/internal/fault"
	"octopus/internal/schedule"
	"octopus/internal/traffic"
)

// TestEveryDecoderIsStrict runs every JSON input decoder of the program over
// the same edits of a valid input: each must reject an unknown key and
// anything but whitespace after its one value. It lives here because the
// request decoders are the daemon's own.
func TestEveryDecoderIsStrict(t *testing.T) {
	decoders := []struct {
		name, valid string
		decode      func(string) error
	}{
		{"traffic.ReadJSON", `{"flows":[{"id":0,"size":1,"src":0,"dst":1,"routes":[[0,1]]}]}`, func(in string) error {
			_, err := traffic.ReadJSON(strings.NewReader(in))
			return err
		}},
		{"JSONL record", `{"id":0,"size":1,"src":0,"dst":1,"routes":[[0,1]]}`, func(in string) error {
			_, err := traffic.ReadStore(strings.NewReader(`{"format":"mhs-flows/v1"}` + "\n" + in + "\n"))
			return err
		}},
		{"fault.ReadJSON", `{"events":[{"at":0,"kind":"link-down","from":0,"to":1}],"delta_jitter":[1]}`, func(in string) error {
			_, err := fault.ReadJSON(strings.NewReader(in))
			return err
		}},
		{"schedule.ReadJSON", `{"delta":2,"configs":[{"alpha":3,"from":[0],"to":[1]}]}`, func(in string) error {
			_, err := schedule.ReadJSON(strings.NewReader(in))
			return err
		}},
		{"flow request", `{"src":0,"dst":1,"size":1}`, func(in string) error {
			_, err := decodeFlowRequests([]byte(in))
			return err
		}},
		{"flow batch", `[{"src":0,"dst":1,"size":1}]`, func(in string) error {
			_, err := decodeFlowRequests([]byte(in))
			return err
		}},
		{"fabric request", `{"n":3,"complete":true}`, func(in string) error {
			_, err := decodeFabricRequest([]byte(in))
			return err
		}},
	}
	edits := []struct {
		name string
		edit func(string) string
		ok   bool
	}{
		{"unknown key", func(v string) string { return strings.Replace(v, "{", `{"dleta":9,`, 1) }, false},
		{"trailing }", func(v string) string { return v + "}" }, false},
		{"trailing ]", func(v string) string { return v + "]" }, false},
		{"second value", func(v string) string { return v + v }, false},
		{"trailing whitespace", func(v string) string { return v + " \t\r " }, true},
	}
	for _, d := range decoders {
		if err := d.decode(d.valid); err != nil {
			t.Fatalf("%s rejects its valid input %s: %v", d.name, d.valid, err)
		}
		for _, e := range edits {
			in := e.edit(d.valid)
			if err := d.decode(in); (err == nil) != e.ok {
				t.Errorf("%s, %s: decode(%s) = %v", d.name, e.name, in, err)
			}
		}
	}
}
