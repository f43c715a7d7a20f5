package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeCheckRequest: for any body, decodeCheckRequest gives the
// request and the error text json.Unmarshal into a zero CheckRequest gives.
func FuzzDecodeCheckRequest(f *testing.F) {
	for _, endpoint := range validationCases() {
		for _, tc := range endpoint.cases {
			f.Add([]byte(tc.body))
		}
	}
	routed, _ := routedRequest(f)
	f.Add(marshalCheck(f, routed))
	measured := bellQASM + "creg c[2];\nmeasure q -> c;\n"
	f.Add(marshalCheck(f, CheckRequest{G: measured, Gp: measured, Options: everyOption}))
	for _, body := range []string{
		// escapes
		`{"g":"measure q \u003e c; a \u0026 b","gp":"\u00e9\u20AC"}`,
		`{"g":"clef \ud834\udd1e","gp":"\uD834\uDD1E"}`,
		`{"g":"lone \ud834 x","gp":"\udd1e\ud834\ud834\udd1e\ud834"}`,
		`{"g":"high then other \ud834A","gp":"cut \ud834\u12"}`,
		"{\"g\":\"invalid \xff utf-8\",\"gp\":\"x\"}",
		"{\"g\":\"cut \xe2\x82\",\"gp\":\"x\"}",
		"{\"g\":\"caf\xc3\xa9 \xf0\x9d\x84\x9e\",\"gp\":\"\xed\xa0\x80\"}",
		"{\"g\":\"raw\ttab\",\"gp\":\"raw\nnewline\"}",
		`{"g":"\"\\\/\b\f\n\r\t","gp":"\\\\"}`,
		`{"g":"bad \x escape","gp":""}`,
		`{"g":"\u00zz","gp":""}`,
		// keys and values
		`{"g":null,"gp":null,"options":null}`,
		`{"G":"a","GP":"b","Options":{"R":3}}`,
		`{"g":"a","g":"b","gp":"c"}`,
		`{"g":"a","gp":"b","options":{"r":1},"options":{"seed":2}}`,
		`{"g":"a","gp":"b","extra":[1,{"x":"}"}]}`,
		`{"gp":"a","g":"b"}`,
		`{"g":"a","gp":"b","options":{"r":"ten"}}`,
		`{"g":"a","gp":"b","options":{"up_to_phase":1,"strategy":7}}`,
		`{"g":"a","gp":"b","options":[]}`,
		`{"g":"a","gp":"b","options":{"strategy":"x]}"}}`,
		`{"g":1,"gp":true}`,
		`{}`,
		` { } `,
		`{"g":"a",}`,
		`[]`,
		``,
		// framing
		"\xef\xbb\xbf" + `{"g":"a","gp":"b"}`,
		`{"g":"a","gp":"b"} garbage`,
		`{"g":"a","gp":"b"}{"g":"a","gp":"b"}`,
		"\r\n\t {\"g\" : \"a\" , \"gp\" : \"b\" }\n",
		`{"g":"a","gp":"b"`,
		`{"g":"a`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeCheckRequest(body)
		var want CheckRequest
		wantErr := json.Unmarshal(body, &want)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%q: error %q, json.Unmarshal %q", body, errText(gotErr), errText(wantErr))
		}
		if got != want {
			t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", body, got, want)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// everyOption sets every CheckOptions field.
var everyOption = CheckOptions{
	R: 12, Seed: -7, TimeoutMS: 5000, Parallel: 2, Strategy: "gate_cost",
	NodeLimit: 100000, UpToGlobalPhase: true, SimOnly: true,
	FidelityThreshold: 0.999, Tolerance: 1e-9,
}

// TestReaderDecidesClientBodies: the bodies clients send — a circuit of
// circuits/ paired with itself, json.Marshal-ed as a CheckRequest with no
// options and with every option set — are decoded by readCheckRequest
// itself, not handed to json.Unmarshal, and decode as json.Unmarshal
// decodes them.  Without it every request could fall back unnoticed.  A
// measured circuit rides along: json.Marshal writes its "->" as "-\u003e".
func TestReaderDecidesClientBodies(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "circuits", "*.qasm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no circuits found: %v", err)
	}
	sources := map[string]string{"measured bell": bellQASM + "creg c[2];\nmeasure q -> c;\n"}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources[path] = string(src)
	}
	for path, src := range sources {
		for _, opts := range []CheckOptions{{}, everyOption} {
			body := marshalCheck(t, CheckRequest{G: src, Gp: src, Options: opts})
			got, ok := readCheckRequest(body)
			if !ok {
				t.Errorf("%s (options %+v): the reader fell back to json.Unmarshal", path, opts)
				continue
			}
			var want CheckRequest
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s (options %+v): decoded %+v, json.Unmarshal %+v", path, opts, got, want)
			}
		}
	}
}
