package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzGatewayJSON holds the gateway's hand-written codecs to encoding/json.
// Decoders: for an arbitrary body, each must accept exactly what
// encoding/json accepts (json.Decoder for the server's SubmitRequest,
// json.Unmarshal for the client's Status and ReadResponse) and decode the
// same value. Encoders: for arbitrary field values, NaN and the infinities
// included, each must write encoding/json's bytes or, where encoding/json
// refuses, fail too. Their output must also take the scanners' own path
// whenever its strings need no escapes.
func FuzzGatewayJSON(f *testing.F) {
	for _, body := range []string{
		`{"ops":[{"kind":"add","key":"k","delta":1}]}`,
		`{"ops":[{"kind":"set","key":"k","value":"AAEC"},{"kind":"add","key":"j","delta":-9}],"speculateAt":0.5,"deadlineMs":20}` + "\n",
		` { "ops" : [ ] , "deadlineMs" : 0 } `,
		`{"ops":[{"kind":"add","key":"\u00e9\n","delta":1}]}`,
		`{"OPS":[{"Kind":"add","KEY":"k","Delta":1}]}`,
		`{"ops":[{"kind":"add","key":"k","delta":1,"extra":[1,{"a":null}]}],"unknown":true}`,
		`{"ops":[{"kind":"add","key":"k","delta":1}]} trailing`,
		`{"ops":[{"kind":"add","key":"k","delta":1}]}{"ops":[]}`,
		`{"ops":[{"kind":"add","key":"k","delta":1e3}]}`,
		`{"ops":[{"kind":"add","key":"k","delta":1.0}],"deadlineMs":-0}`,
		`{"ops":[{"kind":"add","key":"k","delta":99999999999999999999}]}`,
		`{"ops":[{"kind":"add","key":"a","delta":5}],"ops":[{"kind":"set"}]}`,
		`{"ops":[{"kind":"add","kind":"set","key":"k"}]}`,
		`{"ops":null,"speculateAt":null}`,
		`{"ops":[null,{"kind":"set","key":"k","value":null}]}`,
		`{"ops":[{"kind":"set","key":"k","value":"not base64!"}]}`,
		`{"ops":[{"kind":"set","key":"k","value":""}],"speculateAt":1e400}`,
		"{\"ops\":[{\"kind\":\"set\",\"key\":\"bad \xff utf8\"}]}",
		`{"txn":"txn-1","stage":"committed","likelihood":0.25,"done":true,"committed":true,"rejected":false,"speculated":false,"deadlineHit":false,"durationMs":1.5e-7,"votesSeen":3,"votesOverall":5}` + "\n",
		`{"txn":"txn-2","stage":"final","likelihood":-0,"done":false,"error":"boom","votesSeen":9223372036854775808}`,
		`{"key":"k","found":true,"bytes":"eA==","int":-4,"version":7}`,
		`{"key":"k","found":tru}`,
		`{"key":"k","found":false,"version":01}`,
		`null`,
		``,
		`[]`,
	} {
		f.Add([]byte(body), "txn-72057594037927937", "committed", math.Float64bits(0.99), math.Float64bits(1.25), int64(3), uint8(0), []byte("v"))
	}
	f.Add([]byte(`{}`), "<&>\"\\\x01", "\xff\xe2\x80\xa8", math.Float64bits(math.NaN()), math.Float64bits(1e21), int64(-1), uint8(7), []byte{})
	f.Add([]byte(`{}`), "", "add", math.Float64bits(1e-7), math.Float64bits(math.Inf(1)), int64(math.MinInt64), uint8(2), []byte(nil))
	f.Fuzz(func(t *testing.T, body []byte, s1, s2 string, bits1, bits2 uint64, n int64, flags uint8, raw []byte) {
		checkDecoders(t, body)

		f1, f2 := math.Float64frombits(bits1), math.Float64frombits(bits2)
		st := Status{Txn: s1, Stage: s2, Likelihood: f1, Done: flags&1 != 0, Committed: flags&2 != 0,
			Rejected: flags&4 != 0, Speculated: flags&8 != 0, DeadlineHit: flags&16 != 0, Error: s2,
			DurationMs: f2, VotesSeen: int(n), VotesOverall: int(n >> 7)}
		if flags&32 != 0 {
			st.Error = ""
		}
		checkEncoder(t, &st, func(b []byte) ([]byte, error) { return appendStatus(b, &st) })

		rr := ReadResponse{Key: s1, Found: flags&1 != 0, Bytes: raw, Int: n, Version: n >> 3}
		checkEncoder(t, &rr, func(b []byte) ([]byte, error) { return appendReadResponse(b, &rr), nil })

		req := SubmitRequest{Ops: []Op{{Kind: s2, Key: s1, Value: raw, Delta: n}, {Kind: "add", Key: s2}},
			SpeculateAt: f1, DeadlineMs: n >> 1}
		if flags&64 != 0 {
			req.Ops = nil
		}
		checkEncoder(t, &req, func(b []byte) ([]byte, error) { return appendSubmitRequest(b, &req) })

		sub := SubmitResponse{Txn: s1}
		checkEncoder(t, &sub, func(b []byte) ([]byte, error) { return appendSubmitResponse(b, sub), nil })
		eb := errorBody{Error: s2}
		checkEncoder(t, &eb, func(b []byte) ([]byte, error) { return appendErrorBody(b, eb), nil })
	})
}

// checkDecoders decodes body with each scanner-backed decoder and with
// encoding/json, and requires the same verdict and the same value.
func checkDecoders(t *testing.T, body []byte) {
	t.Helper()
	var req, wantReq SubmitRequest
	err := decodeSubmitRequest(body, &req)
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&wantReq)
	if (err == nil) != (werr == nil) || err == nil && !reflect.DeepEqual(req, wantReq) {
		t.Fatalf("SubmitRequest %q: got %+v (%v), encoding/json %+v (%v)", body, req, err, wantReq, werr)
	}
	var st, wantSt Status
	err, werr = unmarshal(body, &st), json.Unmarshal(body, &wantSt)
	if (err == nil) != (werr == nil) || err == nil && !reflect.DeepEqual(st, wantSt) {
		t.Fatalf("Status %q: got %+v (%v), encoding/json %+v (%v)", body, st, err, wantSt, werr)
	}
	var rr, wantRR ReadResponse
	err, werr = unmarshal(body, &rr), json.Unmarshal(body, &wantRR)
	if (err == nil) != (werr == nil) || err == nil && !reflect.DeepEqual(rr, wantRR) {
		t.Fatalf("ReadResponse %q: got %+v (%v), encoding/json %+v (%v)", body, rr, err, wantRR, werr)
	}
}

// checkEncoder requires enc to append json.Marshal(v) after a prefix it
// must keep, or to fail where json.Marshal fails. A body whose strings need
// no escapes must then decode through the scanner, not the fallback.
func checkEncoder(t *testing.T, v any, enc func([]byte) ([]byte, error)) {
	t.Helper()
	want, werr := json.Marshal(v)
	got, err := enc([]byte("prefix"))
	if (err == nil) != (werr == nil) {
		t.Fatalf("%T %+v: encode error %v, encoding/json %v", v, v, err, werr)
	}
	if err != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%T %+v:\n got %s\nwant prefix%s", v, v, got, want)
	}
	checkDecoders(t, want)
	if bytes.IndexByte(want, '\\') >= 0 {
		return
	}
	var took bool
	switch v.(type) {
	case *Status:
		took = scanStatus(want, new(Status))
	case *ReadResponse:
		took = scanReadResponse(want, new(ReadResponse))
	case *SubmitRequest:
		took = scanSubmitRequest(want, new(SubmitRequest))
	default:
		return
	}
	if !took {
		t.Fatalf("%T body %s fell back to encoding/json", v, want)
	}
}

var benchStatus []byte

// BenchmarkGatewayCodec is the gateway's rung of the allocation ladder: one
// op's submit body decoded as the server decodes it, and the final status
// encoded as the server writes it.
func BenchmarkGatewayCodec(b *testing.B) {
	body := []byte(`{"ops":[{"kind":"add","key":"key-000417","delta":1}]}`)
	st := Status{Txn: "txn-72057594037927937", Stage: "committed", Likelihood: 0.9973, Done: true,
		Committed: true, DurationMs: 0.412, VotesSeen: 3, VotesOverall: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req SubmitRequest
		if err := decodeSubmitRequest(body, &req); err != nil || len(req.Ops) != 1 {
			b.Fatal(err)
		}
		bp := getBuf()
		out, err := appendStatus((*bp)[:0], &st)
		if err != nil {
			b.Fatal(err)
		}
		benchStatus = append(out, '\n')
		*bp = benchStatus
		putBuf(bp)
	}
}
