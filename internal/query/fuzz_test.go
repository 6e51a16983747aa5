package query

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// resultCodec is one front-coded result layout: its decoder, and the
// encoder Execute uses, over the decoded answer.
type resultCodec struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}

var resultCodecs = []resultCodec{
	{"range",
		func(b []byte) (any, error) { return RangeResult(b) },
		func(v any) []byte { return rangePayload(v.([]Pair)) }},
	{"prefix",
		func(b []byte) (any, error) { return PrefixResult(b) },
		func(v any) []byte { return prefixPayload(v.([]string)) }},
	{"grep",
		func(b []byte) (any, error) { return GrepResult(b) },
		func(v any) []byte { return grepPayload(v.([]Match)) }},
}

// paddedVarint reports whether b holds a byte with the continuation bit
// followed by a zero byte: every uvarint written past its shortest form
// ends that way, so a b without the pair has none.
func paddedVarint(b []byte) bool {
	for i := 1; i < len(b); i++ {
		if b[i] == 0 && b[i-1] >= 0x80 {
			return true
		}
	}
	return false
}

// frontCoded builds a payload by hand: a count, then per element the
// shared length, the suffix and whatever the layout puts after the key.
func frontCoded(n uint64, elems ...func(w *wire.Writer)) []byte {
	w := wire.NewWriter(64)
	w.Uvarint(n)
	for _, e := range elems {
		e(w)
	}
	return w.Bytes()
}

// key writes one front-coded key (shared ‖ suffix) and then tail's
// fields: a Range value, nothing for Prefix, a Grep line and text.
func key(shared uint64, suffix string, tail ...func(w *wire.Writer)) func(w *wire.Writer) {
	return func(w *wire.Writer) {
		w.Uvarint(shared)
		w.String_(suffix)
		for _, f := range tail {
			f(w)
		}
	}
}

func value(v string) func(w *wire.Writer) { return func(w *wire.Writer) { w.String_(v) } }
func line(n uint64, text string) func(w *wire.Writer) {
	return func(w *wire.Writer) { w.Uvarint(n); w.String_(text) }
}

// refusedResults are payloads every decoder of its layout must refuse:
// a shared length above the previous key's, a key out of order, and
// trailing bytes.
var refusedResults = []struct {
	name    string
	codec   string
	payload []byte
}{
	{"range: shared above len(prev)", "range", frontCoded(2, key(0, "a", value("1")), key(2, "b", value("2")))},
	{"range: key below the one before", "range", frontCoded(2, key(0, "b", value("1")), key(0, "a", value("2")))},
	{"range: key equal to the one before", "range", frontCoded(2, key(0, "a", value("1")), key(1, "", value("2")))},
	{"range: trailing byte", "range", append(frontCoded(1, key(0, "a", value("1"))), 0)},
	{"prefix: shared above len(prev)", "prefix", frontCoded(2, key(0, "a"), key(2, "b"))},
	{"prefix: first key shares with nothing", "prefix", frontCoded(1, key(1, "a"))},
	{"prefix: key below the one before", "prefix", frontCoded(2, key(0, "ab"), key(1, ""))},
	{"prefix: key equal to the one before", "prefix", frontCoded(2, key(0, "ab"), key(2, ""))},
	{"prefix: trailing byte", "prefix", append(frontCoded(1, key(0, "a")), 0)},
	{"grep: shared above len(prev)", "grep", frontCoded(2, key(0, "a", line(1, "x")), key(2, "", line(2, "y")))},
	{"grep: path below the one before", "grep", frontCoded(2, key(0, "b", line(1, "x")), key(0, "a", line(1, "y")))},
	{"grep: trailing byte", "grep", append(frontCoded(1, key(0, "a", line(1, "x"))), 0)},
}

// TestResultDecodersRefuse: every refusedResults payload fails its
// decoder.
func TestResultDecodersRefuse(t *testing.T) {
	for _, tc := range refusedResults {
		for _, c := range resultCodecs {
			if c.name != tc.codec {
				continue
			}
			if v, err := c.decode(tc.payload); err == nil {
				t.Errorf("%s: decoded to %v", tc.name, v)
			}
		}
	}
}

// TestFrontCodedPayloadBytes pins what front coding saves: the keys of
// a sorted run share their prefix once, and a grep path repeated for a
// second matching line costs 2 bytes.
func TestFrontCodedPayloadBytes(t *testing.T) {
	pairs := []Pair{{"catalog/00001", []byte("101")}, {"catalog/00002", []byte("102")}, {"catalog/00013", []byte("113")}}
	// count, then (shared+len+suffix + len+value) per pair: the second key
	// sends "2", the third "13"
	if got, want := len(rangePayload(pairs)), 1+(1+1+13+1+3)+(1+1+1+1+3)+(1+1+2+1+3); got != want {
		t.Errorf("range payload %d bytes, want %d", got, want)
	}
	matches := []Match{{"docs/readme", 1, "hello"}, {"docs/readme", 3, "hello again"}}
	first := 1 + 1 + 11 + 1 + 1 + 5
	if got, want := len(grepPayload(matches)), 1+first+2+1+1+11; got != want {
		t.Errorf("grep payload %d bytes, want %d (the repeated path costs 2)", got, want)
	}
}

// FuzzResultDecoders feeds arbitrary bytes to the Range, Prefix and Grep
// result decoders (a payload comes from an untrusted slave): none panics;
// whatever decodes re-encodes, by the encoder Execute uses, to a payload
// that decodes to the same answer and re-encodes to itself; and a payload
// with no varint padded past its shortest form comes back byte for byte,
// so each answer has one encoding.
func FuzzResultDecoders(f *testing.F) {
	st := fixture()
	for _, q := range []Query{
		Range{From: "", To: "", Limit: 0},
		Range{From: "catalog/", To: "catalog0", Limit: 2},
		Prefix{P: ""},
		Prefix{P: "docs/"},
		Grep{Pattern: "hello", PathPrefix: ""},
		Grep{Pattern: "fix", PathPrefix: "docs/"},
	} {
		res, err := q.Execute(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(res.Payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0x81, 0x00, 0x00, 0x01, 'a', 0x00}) // count 1 as an overlong varint
	for _, tc := range refusedResults {
		f.Add(tc.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range resultCodecs {
			v, err := c.decode(data)
			if err != nil {
				continue
			}
			enc := c.encode(v)
			again, err := c.decode(enc)
			if err != nil {
				t.Fatalf("%s: re-encoded payload does not decode: %v", c.name, err)
			}
			if !reflect.DeepEqual(normal(again), normal(v)) {
				t.Fatalf("%s: round trip changed the answer: %v -> %v", c.name, v, again)
			}
			if !bytes.Equal(c.encode(again), enc) {
				t.Fatalf("%s: re-encoding is not a fixed point", c.name)
			}
			if !paddedVarint(data) && !bytes.Equal(enc, data) {
				t.Fatalf("%s: %x decodes but re-encodes to %x", c.name, data, enc)
			}
		}
	})
}

// normal maps empty Range values to nil so DeepEqual compares contents:
// a decoded empty value is a zero-length copy.
func normal(v any) any {
	pairs, ok := v.([]Pair)
	if !ok {
		return v
	}
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{Key: p.Key, Value: append([]byte(nil), p.Value...)}
	}
	return out
}
