package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceDecode is the /predict body decode as encoding/json alone
// does it, streaming from the request body one byte per read: the
// behaviour decodePredict must reproduce, error text included.
func referenceDecode(body []byte, v any) error {
	r := httptest.NewRequest(http.MethodPost, "/predict", io.NopCloser(iotest.OneByteReader(bytes.NewReader(body))))
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
}

// checkDecode compares decodePredict with referenceDecode on one body
// and reports whether the scanner, not the fallback, decoded it.
func checkDecode(t *testing.T, body []byte) bool {
	t.Helper()
	var fast, got, want PredictRequest
	scanned := scanPredict(body, &fast)
	if scanned {
		var ref PredictRequest
		if err := decodeJSON(body, &ref); err != nil {
			t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("scanner decoded %q as %+v, encoding/json as %+v", body, fast, ref)
		}
	}
	gotErr := decodePredict(body, &got)
	wantErr := referenceDecode(body, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("decode %q: error %v, want %v", body, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q: %+v, want %+v", body, got, want)
	}
	return scanned
}

// TestDecodePredictMatchesEncodingJSON pins which bodies the scanner
// takes and that every body, scanned or not, decodes to encoding/json's
// value or error.
func TestDecodePredictMatchesEncodingJSON(t *testing.T) {
	scanned := []string{
		`{"app":"jacobi","config":"HY1"}`,
		`{"app":"jacobi","config":"HY1","scale":"test","seed":0,"dist":[96,96,96,96,96,96,96,96],"detailed":true,"timeout_ms":250}`,
		" \t\r\n{ \"dist\" : [ -0 , 0 , -9223372036854775808 , 9223372036854775807 ] , \"seed\" : 18446744073709551615 } \n",
		`{"dist":[],"detailed":false,"timeout_ms":-1,"scale":""}`,
		`{}`,
		`{"app":"a b~!#$%&'()*+,-./:;<=>?@[]^_{|}"}`,
	}
	fallback := []string{
		``,
		`   `,
		`{"app": `,
		`{"App":"jacobi","config":"HY1"}`,
		`{"app":"jacobi","CONFIG":"HY1"}`,
		`{"app":"jac\u006fbi","config":"HY1"}`,
		`{"app":"jacobi\n","config":"HY1"}`,
		"{\"app\":\"jacobi\",\"config\":\"H\u00dd1\"}",
		"{\"app\":\"jacobi\xff\",\"config\":\"HY1\"}",
		`{"app":"jacobi","config":"HY1","semed":7}`,
		`{"app":"jacobi","app":"cg","config":"HY1"}`,
		`{"dist":[1],"dist":[2]}`,
		`{"app":null,"config":"HY1"}`,
		`{"seed":null}`,
		`{"dist":null}`,
		`{"dist":[1.0]}`,
		`{"dist":[1e3]}`,
		`{"dist":[01]}`,
		`{"dist":[+1]}`,
		`{"dist":[1,]}`,
		`{"dist":[9223372036854775808]}`,
		`{"dist":[-9223372036854775809]}`,
		`{"dist":[99999999999999999999999]}`,
		`{"seed":-0}`,
		`{"seed":-1}`,
		`{"seed":18446744073709551616}`,
		`{"timeout_ms":1.5}`,
		`{"detailed":"true"}`,
		`{"detailed":True}`,
		`{"detailed":truex}`,
		`{"app":"jacobi",}`,
		`{,}`,
		`{"app":"jacobi","config":"HY1"} trailing`,
		`{"app":"jacobi","config":"HY1"}{}`,
		`[]`,
		`"app"`,
		"\ufeff{}",
	}
	for _, body := range scanned {
		if !checkDecode(t, []byte(body)) {
			t.Errorf("scanner rejected canonical body %q", body)
		}
	}
	for _, body := range fallback {
		if checkDecode(t, []byte(body)) {
			t.Errorf("scanner accepted non-canonical body %q", body)
		}
	}
}

// TestPredictBodyOverCap pins the 1 MiB cap: a longer body is a 400
// even when its first megabyte is whitespace a decoder would skip.
func TestPredictBodyOverCap(t *testing.T) {
	srv := New(Config{})
	body := `{"app":"jacobi","config":"HY1","scale":"test"}` + strings.Repeat(" ", 1<<20)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", rec.Code, rec.Body)
	}
	if n := srv.mEngines.Value(); n != 0 {
		t.Errorf("serve.engines.built = %d after an over-cap body, want 0", n)
	}
}

// randomFloat draws from every branch of encoding/json's float rule:
// zeros of both signs, exponent form below 1e-6 and from 1e21 up,
// subnormals, exact integers, and (when special) NaN and the infinities.
func randomFloat(r *rand.Rand, special bool) float64 {
	var f float64
	switch r.Intn(9) {
	case 0:
		f = 0
	case 1:
		f = math.Copysign(0, -1)
	case 2:
		f = r.Float64() * 1e-6
	case 3:
		f = 1e21 * (1 + r.Float64()*1e6)
	case 4:
		f = math.Float64frombits(r.Uint64() &^ (0x7ff << 52)) // subnormal
	case 5:
		f = float64(r.Int63n(1e6))
	case 6:
		f = math.Float64frombits(r.Uint64())
	case 7:
		if special {
			f = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		}
	default:
		f = r.ExpFloat64() * math.Pow(10, float64(r.Intn(20)-10))
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if !special {
			return 1
		}
	}
	if r.Intn(2) == 0 {
		f = -f
	}
	return f
}

func randomFloats(r *rand.Rand, special bool) []float64 {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	out := make([]float64, r.Intn(10))
	for i := range out {
		out[i] = randomFloat(r, special)
	}
	return out
}

func randomResponse(r *rand.Rand) PredictResponse {
	// One response in ten has a value only encoding/json can render:
	// a NaN or infinite float, or a program name that needs escaping.
	special := r.Intn(20) == 0
	program := []string{"jacobi", "jacobi-prefetch", "rna", ""}[r.Intn(4)]
	if r.Intn(20) == 0 {
		program = []string{"a<b", `q"uote`, "back\\slash", "tab\t", "caf\u00e9", "amp&", "line\u2028sep"}[r.Intn(7)]
	}
	resp := PredictResponse{
		Program:    program,
		Iterations: r.Intn(1000) - 10,
		TotalS:     randomFloat(r, special),
	}
	if r.Intn(8) > 0 {
		resp.Dist = make([]int, r.Intn(12))
		for i := range resp.Dist {
			resp.Dist[i] = int(r.Int63()) - int(r.Int63())
		}
	}
	if r.Intn(3) == 0 { // detailed
		resp.PerIterationS = randomFloat(r, special)
		resp.NodeTimesS = randomFloats(r, special)
		if n := r.Intn(4); n > 0 || r.Intn(2) == 0 {
			resp.SectionTimesS = make([][]float64, n)
			for i := range resp.SectionTimesS {
				resp.SectionTimesS[i] = randomFloats(r, special)
			}
		}
	}
	return resp
}

// TestWritePredictMatchesEncoder pins the response bytes: for random
// responses, detailed ones included, writePredict's headers and body
// equal writeJSON's (json.Encoder's) exactly, through the appender or
// through its fallback.
func TestWritePredictMatchesEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	appended := 0
	for i := 0; i < 20000; i++ {
		resp := randomResponse(r)
		want := httptest.NewRecorder()
		writeJSON(want, resp)
		got := httptest.NewRecorder()
		bp := bufPool.Get().(*[]byte)
		writePredict(got, bp, &resp)
		putBuf(bp)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("response %+v:\n got %q %v\nwant %q %v", resp, got.Body, got.Header(), want.Body, want.Header())
		}
		e := jsonAppender{ok: true}
		if e.predictResponse(&resp); e.ok {
			appended++
		}
	}
	if appended < 10000 {
		t.Errorf("only %d of 20000 responses took the appender", appended)
	}
}

// FuzzRequestDecode checks the request decoders on arbitrary bytes:
// whatever the /predict scanner accepts, encoding/json accepts with an
// equal value; decodePredict agrees with encoding/json's streaming
// decode in value and error text; and the /search decode plus its
// option validation never panic.
func FuzzRequestDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		var req SearchRequest
		if decodeJSON(data, &req) == nil {
			if _, err := scenarioOf(req.scenarioWire); err == nil {
				req.algorithm()
			}
		}
	})
}
