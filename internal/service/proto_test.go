package service

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

// TestMessagesRoundTrip: any service request and response — every field at
// any value, Stats nil and set — comes out of the codec as it went in.
func TestMessagesRoundTrip(t *testing.T) {
	codec := NewCodec(new(bytes.Buffer))
	request := func(m Request) bool {
		if err := codec.WriteRequest(&m); err != nil {
			t.Fatal(err)
		}
		got, err := codec.ReadRequest()
		return err == nil && *got == m
	}
	if err := quick.Check(request, nil); err != nil {
		t.Error(err)
	}
	response := func(m Response) bool {
		if err := codec.WriteResponse(&m); err != nil {
			t.Fatal(err)
		}
		got, err := codec.ReadResponse()
		return err == nil && reflect.DeepEqual(got, &m)
	}
	if err := quick.Check(response, nil); err != nil {
		t.Error(err)
	}
	for _, m := range []Response{{}, {ID: -1 << 63, Err: "nul\x00inside", Stats: &AdmissionStats{}}} {
		if !response(m) {
			t.Errorf("%+v did not round-trip", m)
		}
	}
}
