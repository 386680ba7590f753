package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"s3/internal/core"
)

// FuzzSearchRequest drives POST /search with arbitrary bodies and the
// ?trace and ?partial flags: the handler must not panic, must answer
// with one of the statuses the API documents, and a 200 must carry a
// body that decodes, with at most k results (the engine's default k
// when the request names none).
func FuzzSearchRequest(f *testing.F) {
	inst := testInstance(f, 40, 150, 3)
	h := newTestServer(f, Config{Instance: inst}).Handler()
	for _, c := range errorCases {
		if c.method == "POST" && c.path == "/search" {
			f.Add([]byte(c.body), false, false)
		}
	}
	seeker, kw := aQuery(f, inst)
	f.Add([]byte(fmt.Sprintf(`{"seeker":%q,"keywords":[%q],"k":3}`, seeker, kw)), true, true)

	statuses := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
	}
	f.Fuzz(func(t *testing.T, body []byte, trace, partial bool) {
		path := "/search?"
		if trace {
			path += "trace=1&"
		}
		if partial {
			path += "partial=1"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if !statuses[rec.Code] {
			t.Fatalf("status %d (%s) for body %q", rec.Code, rec.Body.String(), body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// The request decoded the way the handler decodes it: the first
		// JSON value of the body.
		var sr searchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sr); err != nil {
			t.Fatalf("200 for a body that does not decode: %q", body)
		}
		k := sr.K
		if k == 0 {
			k = core.DefaultOptions().K
		}
		var resp searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v: %s", err, rec.Body.String())
		}
		if len(resp.Results) > k {
			t.Fatalf("%d results for k = %d", len(resp.Results), k)
		}
	})
}
