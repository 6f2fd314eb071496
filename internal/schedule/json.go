package schedule

import (
	"encoding/json"
	"fmt"
	"io"

	"octopus/internal/graph"
	"octopus/internal/strictjson"
)

// jsonSchedule is the serialized form of a Schedule: flat link arrays keep
// the files compact and diff-friendly.
type jsonSchedule struct {
	Delta   int          `json:"delta"`
	Configs []jsonConfig `json:"configs"`
}

type jsonConfig struct {
	Alpha int   `json:"alpha"`
	From  []int `json:"from"`
	To    []int `json:"to"`
}

// WriteJSON serializes the schedule as indented JSON, so a plan computed
// once (possibly on a big machine) can be replayed or inspected later.
func (s *Schedule) WriteJSON(w io.Writer) error {
	js := jsonSchedule{Delta: s.Delta, Configs: make([]jsonConfig, len(s.Configs))}
	for i, c := range s.Configs {
		jc := jsonConfig{Alpha: c.Alpha, From: make([]int, len(c.Links)), To: make([]int, len(c.Links))}
		for k, e := range c.Links {
			jc.From[k] = e.From
			jc.To[k] = e.To
		}
		js.Configs[i] = jc
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(js)
}

// ReadJSON parses a schedule from one JSON object (unknown keys and
// trailing data are errors) and checks structural sanity (positive
// durations, matching From/To lengths). Fabric validation is the
// caller's job via Validate.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var js jsonSchedule
	if err := strictjson.Decode(r, &js); err != nil {
		return nil, fmt.Errorf("schedule: decoding: %w", err)
	}
	if js.Delta < 0 {
		return nil, fmt.Errorf("schedule: negative delta %d", js.Delta)
	}
	s := &Schedule{Delta: js.Delta}
	for i, jc := range js.Configs {
		if jc.Alpha <= 0 {
			return nil, fmt.Errorf("schedule: config %d has non-positive alpha", i)
		}
		if len(jc.From) != len(jc.To) {
			return nil, fmt.Errorf("schedule: config %d has %d sources but %d destinations", i, len(jc.From), len(jc.To))
		}
		links := make([]graph.Edge, len(jc.From))
		for k := range jc.From {
			links[k] = graph.Edge{From: jc.From[k], To: jc.To[k]}
		}
		s.Configs = append(s.Configs, Configuration{Links: links, Alpha: jc.Alpha})
	}
	return s, nil
}

// SaveFile writes the schedule to a JSON file.
func (s *Schedule) SaveFile(path string) error { return strictjson.WriteFile(path, s.WriteJSON) }

// LoadFile reads a schedule from a JSON file.
func LoadFile(path string) (*Schedule, error) { return strictjson.ReadFile(path, ReadJSON) }
