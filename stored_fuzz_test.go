// Round-trip conformance for the records a dapplet's store holds. Each
// is written with its type's own binary codec; this file lives in the
// root package for the same reason as wire_fuzz_test.go: the session's
// membership record is an unexported message kind, reached through the
// process-wide registry.
package repro

import (
	"reflect"
	"testing"

	"repro/internal/calendar"
	"repro/internal/designdoc"
	"repro/internal/snapshot"
)

// storedRecord is a value a store holds, in the form its codec reads.
type storedRecord interface {
	AppendBinary(dst []byte) ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// storedRecords makes a fresh, zero value of each stored record type:
// the session membership (an invite), a snapshot checkpoint, a
// designer's parts and a calendar's slot set.
var storedRecords = []func(t testing.TB) storedRecord{
	func(t testing.TB) storedRecord { return newPopulated(t, "session.invite", false) },
	func(testing.TB) storedRecord { return &snapshot.Checkpoint{} },
	func(testing.TB) storedRecord { return &designdoc.Parts{} },
	func(testing.TB) storedRecord { return new(calendar.SlotSet) },
}

// storedSeeds are populated records, one or more of each type, in
// storedRecords order.
func storedSeeds(t testing.TB) [][]storedRecord {
	cp := &snapshot.Checkpoint{}
	populateValue(reflect.ValueOf(cp).Elem(), 5)
	free := calendar.NewAllFree(130)
	free.SetBusy(64)
	return [][]storedRecord{
		{newPopulated(t, "session.invite", true)},
		{cp, &snapshot.Checkpoint{ID: "snap-1", State: []byte{7}, Lamport: 9}},
		{&designdoc.Parts{
			"beam":  {Name: "beam", Version: 3, Text: "steel", Editor: "ada"},
			"joint": {Name: "joint", Version: -1, Editor: "bob"},
		}},
		{&free},
	}
}

// FuzzStoredRecords decodes arbitrary bytes as each stored record. What
// decodes must round-trip exactly — re-encoded and decoded again it is
// the same value — every truncation of its encoding must fail, and so
// must the encoding with a byte appended: a damaged record is an error
// from UnmarshalBinary, never a shorter or longer value read silently.
// The seeds are populated records, which must themselves round-trip.
func FuzzStoredRecords(f *testing.F) {
	for i, seeds := range storedSeeds(f) {
		for _, rec := range append(seeds, storedRecords[i](f)) {
			data, err := rec.AppendBinary(nil)
			if err != nil {
				f.Fatal(err)
			}
			back := storedRecords[i](f)
			if err := back.UnmarshalBinary(data); err != nil || !reflect.DeepEqual(back, rec) {
				f.Fatalf("%T: round trip gave %#v (%v), want %#v", rec, back, err, rec)
			}
			f.Add(uint8(i), data)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		fresh := storedRecords[int(which)%len(storedRecords)]
		rec := fresh(t)
		if rec.UnmarshalBinary(data) != nil {
			return // malformed input must only error, never panic
		}
		enc, err := rec.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%T: decoded record does not re-encode: %v", rec, err)
		}
		back := fresh(t)
		if err := back.UnmarshalBinary(enc); err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("%T: round trip is not a fixed point:\n was %#v\n now %#v (%v)", rec, rec, back, err)
		}
		for cut := range len(enc) {
			if fresh(t).UnmarshalBinary(enc[:cut]) == nil {
				t.Fatalf("%T: the first %d of %d bytes decode", rec, cut, len(enc))
			}
		}
		if fresh(t).UnmarshalBinary(append(enc, 0)) == nil {
			t.Fatalf("%T: a trailing byte decodes", rec)
		}
	})
}
