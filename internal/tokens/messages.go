package tokens

import (
	"maps"
	"slices"

	"repro/internal/lclock"
	"repro/internal/wire"
)

// appendBag / readBag encode a Bag. Colours are written in sorted order
// so equal bags encode to equal bytes; an empty bag decodes as nil.
func appendBag(dst []byte, b Bag) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(b)))
	for _, c := range slices.Sorted(maps.Keys(b)) {
		dst = wire.AppendString(dst, string(c))
		dst = wire.AppendVarint(dst, int64(b[c]))
	}
	return dst
}

func readBag(r *wire.Reader) Bag {
	n := r.Count()
	if n == 0 {
		return nil
	}
	b := make(Bag, n)
	for i := 0; i < n; i++ {
		c := Color(r.String())
		b[c] = int(r.Varint())
	}
	return b
}

// reqMsg asks the allocator for tokens. Want lists explicit counts;
// AllOf lists colours for which the dapplet wants every token in the
// system ("the request can ask for all tokens of a given color").
type reqMsg struct {
	Client string
	Stamp  lclock.Stamp
	Want   Bag
	AllOf  []Color
}

func (*reqMsg) Kind() string { return "tokens.request" }

// AppendBinary implements wire.Msg.
func (m *reqMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Client)
	dst = wire.AppendUvarint(dst, m.Stamp.Time)
	dst = wire.AppendString(dst, m.Stamp.ID)
	dst = appendBag(dst, m.Want)
	dst = wire.AppendUvarint(dst, uint64(len(m.AllOf)))
	for _, c := range m.AllOf {
		dst = wire.AppendString(dst, string(c))
	}
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *reqMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Client = r.String()
	m.Stamp.Time = r.Uvarint()
	m.Stamp.ID = r.String()
	m.Want = readBag(r)
	m.AllOf = nil
	if n := r.Count(); n > 0 {
		m.AllOf = make([]Color, n)
		for i := range m.AllOf {
			m.AllOf[i] = Color(r.String())
		}
	}
	return r.Done()
}

// grantMsg satisfies a request; Granted resolves AllOf colours to counts.
// Serials carries, for each granted colour, the cumulative number of
// grants of that colour — a total order over acquisitions that clients can
// use as a sequencer (e.g. document version numbers).
type grantMsg struct {
	Granted Bag
	Serials map[Color]uint64
}

func (*grantMsg) Kind() string { return "tokens.grant" }

// AppendBinary implements wire.Msg.
func (m *grantMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendBag(dst, m.Granted)
	dst = wire.AppendUvarint(dst, uint64(len(m.Serials)))
	for _, c := range slices.Sorted(maps.Keys(m.Serials)) {
		dst = wire.AppendString(dst, string(c))
		dst = wire.AppendUvarint(dst, m.Serials[c])
	}
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *grantMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Granted = readBag(r)
	m.Serials = nil
	if n := r.Count(); n > 0 {
		m.Serials = make(map[Color]uint64, n)
		for i := 0; i < n; i++ {
			c := Color(r.String())
			m.Serials[c] = r.Uvarint()
		}
	}
	return r.Done()
}

// relMsg returns tokens to the allocator.
type relMsg struct {
	Client string
	Give   Bag
}

func (*relMsg) Kind() string { return "tokens.release" }

// AppendBinary implements wire.Msg.
func (m *relMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Client)
	return appendBag(dst, m.Give), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *relMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Client = r.String()
	m.Give = readBag(r)
	return r.Done()
}

// totalReqMsg queries the fixed token totals.
type totalReqMsg struct{}

func (*totalReqMsg) Kind() string { return "tokens.total-req" }

// AppendBinary implements wire.Msg.
func (*totalReqMsg) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

// UnmarshalBinary implements wire.Msg.
func (*totalReqMsg) UnmarshalBinary(data []byte) error { return wire.NewReader(data).Done() }

// totalRepMsg answers a totals query.
type totalRepMsg struct {
	Total Bag
}

func (*totalRepMsg) Kind() string { return "tokens.total-rep" }

// AppendBinary implements wire.Msg.
func (m *totalRepMsg) AppendBinary(dst []byte) ([]byte, error) {
	return appendBag(dst, m.Total), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *totalRepMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Total = readBag(r)
	return r.Done()
}

func init() {
	wire.Register(&reqMsg{})
	wire.Register(&grantMsg{})
	wire.Register(&relMsg{})
	wire.Register(&totalReqMsg{})
	wire.Register(&totalRepMsg{})
}
