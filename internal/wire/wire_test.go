package wire

import (
	"errors"
	"strings"
	"testing"
)

// box is a test payload that may carry another payload, like an envelope.
type box struct{ In any }

func (box) WireTag() Tag { return TagTest }

func (b box) AppendWire(out []byte) ([]byte, error) {
	if b.In == nil {
		return append(out, 0), nil
	}
	return AppendPayload(append(out, 1), b.In)
}

func (box) ReadWire(r *Reader) any {
	if r.Byte() == 0 {
		return box{}
	}
	return box{In: r.Payload()}
}

// clash claims box's tag.
type clash struct{}

func (clash) WireTag() Tag                        { return TagTest }
func (clash) AppendWire(b []byte) ([]byte, error) { return b, nil }
func (clash) ReadWire(*Reader) any                { return clash{} }

func init() { Register(box{}) }

func decode(b []byte) (any, error) {
	var r Reader
	r.Reset(b)
	v := r.Payload()
	return v, r.Done()
}

func TestRegisterSameTypeAgainButNoClash(t *testing.T) {
	Register(box{}) // the same type again: nothing happens
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "clash") {
			t.Fatalf("a second type on a held tag: recover() = %v, want a panic naming it", r)
		}
	}()
	Register(clash{})
}

func TestAppendPayloadRefusesUnregisteredTypes(t *testing.T) {
	for v, name := range map[any]string{struct{ X int }{1}: "struct { X int }", clash{}: "wire.clash", box{In: clash{}}: "wire.clash"} {
		b, err := AppendPayload([]byte{7}, v)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("AppendPayload(%+v): err = %v, want one naming %s", v, err, name)
		}
		if len(b) != 1 {
			t.Errorf("AppendPayload(%+v) on error returned %x, want the input", v, b)
		}
	}
}

// TestPayloadNestsOneLevel: a payload may carry one payload, and no deeper,
// so a hostile input cannot make the decoder recurse.
func TestPayloadNestsOneLevel(t *testing.T) {
	one, err := AppendPayload(nil, box{In: box{}})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := decode(one); err != nil || v != (box{In: box{}}) {
		t.Fatalf("one level: %+v, %v", v, err)
	}
	two, err := AppendPayload(nil, box{In: box{In: box{}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(two); !errors.Is(err, errTooDeep) {
		t.Fatalf("two levels: err = %v, want %v", err, errTooDeep)
	}
}

func TestReaderRejectsMalformedInput(t *testing.T) {
	for name, in := range map[string][]byte{
		"empty":          {},
		"unknown tag":    {99},
		"truncated body": {byte(TagTest)},
		"trailing bytes": {byte(TagTest), 0, 0},
	} {
		if _, err := decode(in); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var r Reader
	r.Reset(append(AppendUint(nil, 3), 'a', 'b'))
	if r.Count(1) != 0 || !errors.Is(r.Err(), errTruncated) {
		t.Fatalf("a count of 3 with 2 bytes left: err = %v", r.Err())
	}
	if r.Str() != "" || r.Int() != 0 || r.Byte() != 0 {
		t.Fatal("reads after an error must return zero values")
	}
}
