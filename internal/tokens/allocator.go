package tokens

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/svc"
	"repro/internal/wire"
)

// AllocStats counts allocator events.
type AllocStats struct {
	Requests  uint64
	Grants    uint64
	Denies    uint64
	Deadlocks uint64 // requests denied due to deadlock
	Releases  uint64
}

// pendReq is a queued request ordered by logical timestamp, answered
// through its deferred reply once granted or refused.
type pendReq struct {
	req   *reqMsg
	want  Bag // explicit want with AllOf colours resolved
	reply svc.Reply
}

// Allocator is the hub of a network of token managers: it owns the fixed
// token population of a session and serves request/release/total traffic
// on the dapplet's AllocInbox.
type Allocator struct {
	srv *svc.Server

	mu      sync.Mutex
	total   Bag
	free    Bag
	holds   map[string]Bag
	serials map[Color]uint64
	pending []*pendReq
	stats   AllocStats
}

// Serve starts a token allocator on the dapplet with the given initial
// token population. "The dapplet that constructs the network of token
// managers ensures that the initial number of tokens is set appropriately"
// (§4.1).
func Serve(d *core.Dapplet, initial Bag) *Allocator {
	a := &Allocator{
		total:   initial.Copy().Normalize(),
		free:    initial.Copy().Normalize(),
		holds:   make(map[string]Bag),
		serials: make(map[Color]uint64),
	}
	a.srv = svc.Serve(d, AllocInbox, svc.Handlers{
		"tokens.request":   a.onRequest,
		"tokens.release":   a.onRelease,
		"tokens.total-req": a.onTotal,
	})
	return a
}

// Ref returns the allocator's control inbox reference, which managers
// connect to.
func (a *Allocator) Ref() wire.InboxRef { return a.srv.Ref() }

// Free returns the tokens currently held by the manager network itself.
func (a *Allocator) Free() Bag {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.free.Copy()
}

// Stats returns a snapshot of allocator counters.
func (a *Allocator) Stats() AllocStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ConservationHolds verifies the token invariant: "the total number of
// tokens of each colour in the system remains unchanged."
func (a *Allocator) ConservationHolds() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	sum := a.free.Copy()
	for _, h := range a.holds {
		sum.Add(h)
	}
	if len(sum) != len(a.total) {
		return false
	}
	for c, n := range a.total {
		if sum[c] != n {
			return false
		}
	}
	return true
}

func (a *Allocator) onTotal(*svc.Ctx, wire.Msg) (wire.Msg, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return &totalRepMsg{Total: a.total.Copy()}, nil
}

// onRequest queues a request and answers it — now or from a later
// request's or release's handler — through its deferred reply.
func (a *Allocator) onRequest(c *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*reqMsg)
	a.mu.Lock()
	a.stats.Requests++

	// Resolve the effective want, expanding AllOf colours to the total
	// population of that colour.
	want := m.Want.Copy().Normalize()
	for _, col := range m.AllOf {
		want[col] = a.total[col]
	}
	// Requests for colours that do not exist can never be satisfied.
	for col := range want {
		if _, ok := a.total[col]; !ok {
			a.stats.Denies++
			a.mu.Unlock()
			return nil, &svc.Error{Code: codeUnknownColor, Msg: "unknown color " + string(col)}
		}
	}

	a.pending = append(a.pending, &pendReq{req: m, want: want, reply: c.Defer()})
	// Conflicts are resolved in favour of the earlier timestamp, ties by
	// lower id (§4.2): keep the queue sorted accordingly.
	sort.SliceStable(a.pending, func(i, j int) bool {
		return a.pending[i].req.Stamp.Less(a.pending[j].req.Stamp)
	})
	answers := a.scanLocked()
	a.mu.Unlock()
	send(answers)
	return nil, nil
}

func (a *Allocator) onRelease(_ *svc.Ctx, req wire.Msg) (wire.Msg, error) {
	m := req.(*relMsg)
	a.mu.Lock()
	give := m.Give.Copy().Normalize()
	h := a.holds[m.Client]
	if h == nil || !h.Sub(give) {
		// The manager already raised ErrNotHeld locally; ignore the
		// inconsistent release to preserve conservation.
		a.mu.Unlock()
		return nil, nil
	}
	if h.IsEmpty() {
		delete(a.holds, m.Client)
	}
	a.free.Add(give)
	a.stats.Releases++
	answers := a.scanLocked()
	a.mu.Unlock()
	send(answers)
	return nil, nil
}

// answer is one queued request's outcome, sent after the lock is
// released.
type answer struct {
	reply svc.Reply
	resp  wire.Msg
	err   error
}

func send(answers []answer) {
	for _, x := range answers {
		x.reply.Send(x.resp, x.err)
	}
}

// scanLocked grants every satisfiable pending request in timestamp order,
// then runs deadlock detection on the remainder. It returns the grants,
// then the refusals, to send after the lock is released.
func (a *Allocator) scanLocked() (answers []answer) {
	progress := true
	for progress {
		progress = false
		for i, p := range a.pending {
			if !a.free.Contains(p.want) {
				continue
			}
			a.free.Sub(p.want)
			h := a.holds[p.req.Client]
			if h == nil {
				h = make(Bag)
				a.holds[p.req.Client] = h
			}
			h.Add(p.want)
			a.stats.Grants++
			serials := make(map[Color]uint64, len(p.want))
			for c := range p.want {
				a.serials[c]++
				serials[c] = a.serials[c]
			}
			answers = append(answers, answer{
				reply: p.reply,
				resp:  &grantMsg{Granted: p.want.Copy(), Serials: serials},
			})
			a.pending = append(a.pending[:i], a.pending[i+1:]...)
			progress = true
			break
		}
	}
	if len(a.pending) == 0 {
		return answers
	}

	// Deadlock detection by graph reduction: work starts with the free
	// tokens plus the holdings of every dapplet that is not blocked
	// (those release all resources within finite time, §4.2). Any blocked
	// request that still cannot complete at the fixpoint is deadlocked.
	work := a.free.Copy()
	blockedBy := make(map[string]*pendReq, len(a.pending))
	for _, p := range a.pending {
		blockedBy[p.req.Client] = p
	}
	for client, h := range a.holds {
		if _, blocked := blockedBy[client]; !blocked {
			work.Add(h)
		}
	}
	finished := true
	for finished {
		finished = false
		for client, p := range blockedBy {
			if work.Contains(p.want) {
				work.Add(a.holds[client])
				delete(blockedBy, client)
				finished = true
			}
		}
	}
	if len(blockedBy) == 0 {
		return answers
	}
	// Raise the exception to every request in the deadlocked set.
	var kept []*pendReq
	for _, p := range a.pending {
		if _, dead := blockedBy[p.req.Client]; !dead {
			kept = append(kept, p)
			continue
		}
		a.stats.Denies++
		a.stats.Deadlocks++
		answers = append(answers, answer{
			reply: p.reply,
			err:   &svc.Error{Code: codeDeadlock, Msg: "deadlock among token holders"},
		})
	}
	a.pending = kept
	return answers
}
