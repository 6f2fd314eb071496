package fault

import (
	"encoding/json"
	"fmt"
	"io"

	"octopus/internal/strictjson"
)

// jsonTrace is the serialized form of a Trace.
type jsonTrace struct {
	Events      []jsonEvent `json:"events"`
	DeltaJitter []int       `json:"delta_jitter,omitempty"`
}

type jsonEvent struct {
	At   int    `json:"at"`
	Kind string `json:"kind"`
	From int    `json:"from,omitempty"`
	To   int    `json:"to,omitempty"`
	Node int    `json:"node,omitempty"`
}

var kindNames = map[Kind]string{
	LinkDown: "link-down",
	LinkUp:   "link-up",
	NodeDown: "node-down",
	NodeUp:   "node-up",
}

var kindValues = map[string]Kind{
	"link-down": LinkDown,
	"link-up":   LinkUp,
	"node-down": NodeDown,
	"node-up":   NodeUp,
}

// WriteJSON serializes the trace as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	js := jsonTrace{DeltaJitter: t.DeltaJitter}
	for _, e := range t.Events {
		je := jsonEvent{At: e.At, Kind: kindNames[e.Kind]}
		if e.IsLink() {
			je.From, je.To = e.From, e.To
		} else {
			je.Node = e.Node
		}
		js.Events = append(js.Events, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(js)
}

// ReadJSON parses a failure trace from one JSON object (unknown keys and
// trailing data are errors) and checks every structural invariant that
// does not require a fabric: known event kinds, non-negative slots,
// non-negative node and port indexes, no self-loop links, and non-negative
// jitter. Fabric validation (links exist, nodes in range) is
// the caller's job via Validate. Untrusted input never panics: it either
// decodes to a structurally valid trace or returns an error.
func ReadJSON(r io.Reader) (*Trace, error) {
	var js jsonTrace
	if err := strictjson.Decode(r, &js); err != nil {
		return nil, fmt.Errorf("fault: decoding trace: %w", err)
	}
	t := &Trace{DeltaJitter: js.DeltaJitter}
	for i, je := range js.Events {
		kind, ok := kindValues[je.Kind]
		if !ok {
			return nil, fmt.Errorf("fault: event %d has unknown kind %q", i, je.Kind)
		}
		if je.At < 0 {
			return nil, fmt.Errorf("fault: event %d at negative slot %d", i, je.At)
		}
		e := Event{At: je.At, Kind: kind}
		if e.IsLink() {
			if je.From < 0 || je.To < 0 {
				return nil, fmt.Errorf("fault: event %d has negative link endpoint %d->%d", i, je.From, je.To)
			}
			if je.From == je.To {
				return nil, fmt.Errorf("fault: event %d names self-loop link %d->%d", i, je.From, je.To)
			}
			e.From, e.To = je.From, je.To
		} else {
			if je.Node < 0 {
				return nil, fmt.Errorf("fault: event %d has negative node %d", i, je.Node)
			}
			e.Node = je.Node
		}
		t.Events = append(t.Events, e)
	}
	for k, j := range t.DeltaJitter {
		if j < 0 {
			return nil, fmt.Errorf("fault: negative delta jitter %d at reconfiguration %d", j, k)
		}
	}
	return t, nil
}

// SaveFile writes the trace to a JSON file.
func (t *Trace) SaveFile(path string) error { return strictjson.WriteFile(path, t.WriteJSON) }

// LoadFile reads a failure trace from a JSON file.
func LoadFile(path string) (*Trace, error) { return strictjson.ReadFile(path, ReadJSON) }
