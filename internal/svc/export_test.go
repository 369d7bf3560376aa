package svc

import (
	"repro/internal/core"
	"repro/internal/wire"
)

// DeliverRequest is Send with the request handed to the serving
// dapplet's DeliverLocal on the calling goroutine instead of the wire,
// as a relay delivery or a snapshot's channel replay hands one over. The
// reply comes back over the wire.
func (c *Caller) DeliverRequest(srv *core.Dapplet, to wire.InboxRef, req wire.Msg) (*Pending, error) {
	body, err := wire.EncodeBody(req)
	if err != nil {
		return nil, err
	}
	defer body.Release()
	p := c.register()
	srv.DeliverLocal(&wire.Envelope{
		To:          to,
		FromDapplet: c.d.Addr(),
		Lamport:     c.d.Clock().StampSend(),
		Body:        &reqMsg{Seq: p.seq, ReplyInbox: c.in.Name(), BodyID: body.ID(), Body: body.Bytes()},
	})
	return p, nil
}

// RequestFrame is the svc frame of a correlated request numbered seq
// whose reply goes to the sender's inbox replyInbox.
func RequestFrame(seq uint64, replyInbox string, req wire.Msg) (wire.Msg, error) {
	body, err := wire.EncodeBody(req)
	if err != nil {
		return nil, err
	}
	defer body.Release()
	return &reqMsg{Seq: seq, ReplyInbox: replyInbox, BodyID: body.ID(), Body: append([]byte(nil), body.Bytes()...)}, nil
}

// ReplySeq returns the number of the request m answers, when m is a
// reply frame.
func ReplySeq(m wire.Msg) (uint64, bool) {
	rep, ok := m.(*repMsg)
	if !ok {
		return 0, false
	}
	return rep.Seq, true
}
