package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// recordFileName names the n-th query's record of a session started at
// t: deterministic within a session, unique across them.
func recordFileName(t time.Time, n int) string {
	return fmt.Sprintf("query-%s-%03d.jsonl", t.Format("20060102-150405"), n)
}

// writeRecord writes rec to path as one line of JSON, making parent
// directories as needed.
func writeRecord(path string, rec *core.Record) error {
	b, err := json.Marshal(rec)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	return err
}

// readRecord reads the one record a file holds. A json.Decoder has no
// line-length cap (a traced world-8 record holds up to 8 × 64 Ki spans,
// past any line buffer sized for a query), and a malformed record fails
// naming the byte where it went wrong.
func readRecord(path string) (*core.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	rec := &core.Record{}
	if err := dec.Decode(rec); err != nil {
		var syn *json.SyntaxError
		switch {
		case errors.Is(err, io.EOF):
			return nil, fmt.Errorf("%s: no record", path)
		case errors.As(err, &syn):
			return nil, fmt.Errorf("%s: byte %d: %w", path, syn.Offset, err)
		}
		return nil, fmt.Errorf("%s: byte %d: %w", path, dec.InputOffset(), err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%s: byte %d: data after the record", path, dec.InputOffset())
	}
	return rec, nil
}

// writeChrome writes rec's spans to path as Chrome trace_event JSON.
func writeChrome(path string, rec *core.Record) error {
	tr := rec.Trace()
	if tr == nil {
		return errors.New("the record holds no spans: record the query with sac -analyze")
	}
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
