package traffic

import (
	"encoding/json"
	"fmt"
	"io"

	"octopus/internal/strictjson"
)

// WriteJSON serializes the load as indented JSON.
func (l *Load) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(l)
}

// ReadJSON parses a load from one JSON document (unknown keys and trailing
// data are errors). Every flow is held to the stream schema
// (checkStreamFlow), so the document, JSONL and binary encodings accept the
// same flows; fabric validation against a specific graph is the caller's
// job via Validate.
func ReadJSON(r io.Reader) (*Load, error) {
	var l Load
	if err := strictjson.Decode(r, &l); err != nil {
		return nil, fmt.Errorf("traffic: decoding load: %w", err)
	}
	for i := range l.Flows {
		if err := checkStreamFlow(&l.Flows[i]); err != nil {
			return nil, err
		}
	}
	return &l, nil
}

// SaveFile writes the load to a JSON file.
func (l *Load) SaveFile(path string) error { return strictjson.WriteFile(path, l.WriteJSON) }
