package svc

import (
	"fmt"

	"repro/internal/wire"
)

// Code classifies a service error for the wire: it is the part of an
// error that survives marshalling, so callers can dispatch on it with
// errors.Is instead of matching message strings.
type Code uint16

// Framework error codes. Codes below CodeUser belong to svc itself;
// services layering a protocol on svc allocate their codes from CodeUser
// upward.
const (
	// codeOK is the zero code of a successful reply (never in an Error).
	codeOK Code = 0
	// CodeNoHandler reports that the serving inbox has no handler for the
	// request's message kind.
	CodeNoHandler Code = 1
	// CodeBadRequest reports that the nested request body could not be
	// decoded.
	CodeBadRequest Code = 2
	// CodeApp wraps a handler error that carried no code of its own.
	CodeApp Code = 3
	// CodeUser is the first application-defined code; rpc, for example,
	// piggybacks "no such method" as CodeUser+0.
	CodeUser Code = 64
)

// Error is a typed service error. Handlers return it (or any error, which
// Serve wraps as CodeApp) and Caller reconstructs it on the other side,
// code intact — errors piggyback on the reply as typed values, not
// strings.
type Error struct {
	// Code classifies the failure; it survives the wire.
	Code Code
	// Msg is the human-readable detail.
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("svc: error code %d", e.Code)
	}
	return "svc: " + e.Msg
}

// Is matches two service errors by code, so sentinel values like
// ErrNoHandler work with errors.Is regardless of message text.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// ErrNoHandler is the typed error a Call returns when the serving inbox
// has no handler registered for the request's kind.
var ErrNoHandler = &Error{Code: CodeNoHandler, Msg: "no handler for request kind"}

// asError normalizes a handler error for the wire.
func asError(err error) *Error {
	if se, ok := err.(*Error); ok {
		return se
	}
	return &Error{Code: CodeApp, Msg: err.Error()}
}

// reqMsg frames one correlated request: the caller's sequence number, its
// reply inbox's name (on the sender, whose address the transport gives),
// and the application request as a nested encoded body.
type reqMsg struct {
	Seq        uint64
	ReplyInbox string
	BodyID     uint16
	Body       []byte
}

// Kind implements wire.Msg.
func (*reqMsg) Kind() string { return "svc.req" }

// AppendBinary implements wire.Msg.
func (m *reqMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, m.Seq)
	dst = wire.AppendString(dst, m.ReplyInbox)
	return wire.AppendBody(dst, m.BodyID, m.Body), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *reqMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Seq = r.Uvarint()
	m.ReplyInbox = r.String()
	m.BodyID, m.Body = r.Body()
	return r.Done()
}

// repMsg answers a correlated request: the request's sequence number,
// either an error (code + message) or a nested encoded response body.
type repMsg struct {
	Seq    uint64
	Code   uint16
	Err    string
	BodyID uint16
	Body   []byte
}

// Kind implements wire.Msg.
func (*repMsg) Kind() string { return "svc.rep" }

// AppendBinary implements wire.Msg.
func (m *repMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, m.Seq)
	dst = wire.AppendUvarint(dst, uint64(m.Code))
	dst = wire.AppendString(dst, m.Err)
	return wire.AppendBody(dst, m.BodyID, m.Body), nil
}

// UnmarshalBinary implements wire.Msg.
func (m *repMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Seq = r.Uvarint()
	m.Code = uint16(r.Uvarint())
	m.Err = r.String()
	m.BodyID, m.Body = r.Body()
	return r.Done()
}

func init() {
	wire.Register(&reqMsg{})
	wire.Register(&repMsg{})
}
