package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseSubmission hammers the POST /jobs body parser: no body may
// panic it, and every submission it accepts must re-encode to JSON that
// parses back to the same submission.
func FuzzParseSubmission(f *testing.F) {
	for _, body := range []string{
		`{"campaign":{"scenario":"fame-jam","runs":8,"seed":5}}`,
		`{"tenant":"t","campaign":{"scenario":"x","runs":3,"seed":9}}`,
		`{"sweep":{"name":"grid"},"catalog":{"sweeps":[{"name":"grid","base":"fame-clear","t":[0,1],"runs":3,"seed":3}]}}`,
		`{"trace":true,"campaign":{"scenario":"fame-clear","runs":1,"seed":1}}`,
		`{"campaign":{"scenario":"fame-jam"},"surprise":1}`,
		`{"campaign":{"scenario":"x"}}{"again":1}`,
	} {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body string) {
		sub, err := parseSubmission(strings.NewReader(body))
		if err != nil {
			return
		}
		blob, err := json.Marshal(sub)
		if err != nil {
			t.Fatalf("accepted submission does not re-encode: %v", err)
		}
		again, err := parseSubmission(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-encoded submission rejected: %v\n%s", err, blob)
		}
		if blob2, err := json.Marshal(again); err != nil || !bytes.Equal(blob2, blob) {
			t.Fatalf("submission changed across a re-encode (%v):\n%s\nvs\n%s", err, blob2, blob)
		}
	})
}
