// Package session implements the paper's sessions: "a temporary network
// of dapplets that carries out a task" (§1). An initiator dapplet uses an
// address directory to send link-up requests to component dapplets; a
// dapplet "may accept the request and link itself up, or it may reject the
// request because the requesting dapplet was not on its access control
// list or because it is already participating in a session and another
// concurrent session would cause interference" (§3.1). Sessions "need not
// be static: after initiation they may grow and shrink" (§1), and when a
// session terminates, "component dapplets unlink themselves from each
// other".
//
// Setup is one phase, as in the paper: a participant that accepts an
// invite links itself up — inboxes, outbox bindings, tree — before it
// answers, and one that rejects changes nothing. If any participant
// rejects, or the handshake fails (a timeout, a cancelled context), the
// initiator gives up with a one-way terminate to every participant,
// which unlinks the ones that accepted. Termination and membership
// changes are acknowledged so the initiator can observe completion. All
// control traffic rides the svc request/response framework
// (internal/svc): the "@session" inbox is an svc-served handler table,
// the initiator is an svc caller, and every blocking call takes a
// context.Context.
//
// The initiator owns the address directory and tells each participant
// what it must bind (Fig. 2). On a flat session that includes the whole
// roster, in which behaviours find their peers by role. On a tree session
// (Spec.Tree set — the group may be large) a participant is told only its
// view: itself, its tree parent and children, plus the group size. See
// Membership.Roster.
package session
