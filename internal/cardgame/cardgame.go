// Package cardgame implements the paper's ring-session example (§3.1):
// "in a distributed card game session, a player dapplet may be linked to
// its predecessor and successor player dapplets, which correspond to the
// players to its left and right respectively."
//
// The game: a dealer deals each player a hand of ranked cards and injects
// a turn token. On its turn a player passes its lowest card (and the turn)
// to its successor; a player holding four cards of one rank announces the
// win to the dealer and the game stops. If the token completes the round
// limit with no winner, the current holder reports a draw. The total card
// population is conserved throughout — the token-invariant of §4.1 in
// game form.
package cardgame

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// Inbox/outbox names of the game wiring.
const (
	// PredInbox receives cards and the turn token from the predecessor.
	PredInbox = "pred"
	// SuccOutbox sends to the successor player.
	SuccOutbox = "succ"
	// TableInbox is the dealer's inbox for announcements.
	TableInbox = "table"
	// AnnounceOutbox is each player's outbox toward the dealer.
	AnnounceOutbox = "announce"
	// WinLength is how many cards of one rank win.
	WinLength = 4
)

// dealMsg gives a player its initial hand.
type dealMsg struct {
	Hand []int
}

// Kind implements wire.Msg.
func (*dealMsg) Kind() string { return "cards.deal" }

// AppendBinary implements wire.Msg.
func (m *dealMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(m.Hand)))
	for _, c := range m.Hand {
		dst = wire.AppendVarint(dst, int64(c))
	}
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *dealMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if n := r.Count(); n > 0 {
		m.Hand = make([]int, n)
		for i := range m.Hand {
			m.Hand[i] = int(r.Varint())
		}
	} else {
		m.Hand = nil
	}
	return r.Done()
}

// turnMsg passes the turn token and one card to the successor.
type turnMsg struct {
	Card    int
	HasCard bool
	Hops    int
	MaxHops int
}

// Kind implements wire.Msg.
func (*turnMsg) Kind() string { return "cards.turn" }

// AppendBinary implements wire.Msg.
func (m *turnMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendVarint(dst, int64(m.Card))
	dst = wire.AppendBool(dst, m.HasCard)
	dst = wire.AppendVarint(dst, int64(m.Hops))
	dst = wire.AppendVarint(dst, int64(m.MaxHops))
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *turnMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Card = int(r.Varint())
	m.HasCard = r.Bool()
	m.Hops = int(r.Varint())
	m.MaxHops = int(r.Varint())
	return r.Done()
}

// announceMsg reports the game result to the dealer.
type announceMsg struct {
	Player string
	Rank   int
	Winner bool
	Hops   int
}

// Kind implements wire.Msg.
func (*announceMsg) Kind() string { return "cards.announce" }

// AppendBinary implements wire.Msg.
func (m *announceMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendString(dst, m.Player)
	dst = wire.AppendVarint(dst, int64(m.Rank))
	dst = wire.AppendBool(dst, m.Winner)
	dst = wire.AppendVarint(dst, int64(m.Hops))
	return dst, nil
}

// UnmarshalBinary implements wire.Msg.
func (m *announceMsg) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	m.Player = r.String()
	m.Rank = int(r.Varint())
	m.Winner = r.Bool()
	m.Hops = int(r.Varint())
	return r.Done()
}

func init() {
	wire.Register(&dealMsg{})
	wire.Register(&turnMsg{})
	wire.Register(&announceMsg{})
}

// Player is the card-player dapplet behaviour.
type Player struct {
	mu   sync.Mutex
	hand []int
	done bool
	d    *core.Dapplet
}

// NewPlayer creates a player with an empty hand (the dealer deals).
func NewPlayer() *Player { return &Player{} }

// Start implements core.Behavior.
func (p *Player) Start(d *core.Dapplet) error {
	p.d = d
	d.Handle(PredInbox, p.onMessage)
	return nil
}

// Hand returns a copy of the player's current hand.
func (p *Player) Hand() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.hand...)
}

// winningRank returns the rank held WinLength times, or -1.
func winningRank(hand []int) int {
	count := make(map[int]int)
	for _, c := range hand {
		count[c]++
		if count[c] >= WinLength {
			return c
		}
	}
	return -1
}

func (p *Player) onMessage(env *wire.Envelope) {
	switch m := env.Body.(type) {
	case *dealMsg:
		p.mu.Lock()
		p.hand = append([]int(nil), m.Hand...)
		p.mu.Unlock()
	case *turnMsg:
		p.onTurn(m)
	}
}

func (p *Player) onTurn(m *turnMsg) {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	if m.HasCard {
		p.hand = append(p.hand, m.Card)
	}
	if rank := winningRank(p.hand); rank >= 0 {
		p.done = true
		hops := m.Hops
		p.mu.Unlock()
		_ = p.d.Outbox(AnnounceOutbox).Send(&announceMsg{
			Player: p.d.Name(), Rank: rank, Winner: true, Hops: hops,
		})
		return
	}
	if m.Hops >= m.MaxHops {
		p.done = true
		p.mu.Unlock()
		_ = p.d.Outbox(AnnounceOutbox).Send(&announceMsg{
			Player: p.d.Name(), Winner: false, Hops: m.Hops,
		})
		return
	}
	// Pass the lowest card with the turn.
	next := &turnMsg{Hops: m.Hops + 1, MaxHops: m.MaxHops}
	if len(p.hand) > 0 {
		sort.Ints(p.hand)
		next.Card = p.hand[0]
		next.HasCard = true
		p.hand = p.hand[1:]
	}
	p.mu.Unlock()
	_ = p.d.Outbox(SuccOutbox).Send(next)
}

// Dealer runs the game from the dealer dapplet: it deals hands, injects
// the turn token at the first player, and reports the announcement.
type Dealer struct {
	d *core.Dapplet
}

// NewDealer wraps a dapplet as the game's dealer. The dapplet's "deal"
// outbox must not be used; dealing is point-to-point.
func NewDealer(d *core.Dapplet) *Dealer {
	d.Inbox(TableInbox)
	return &Dealer{d: d}
}

// Result is the dealer's view of a finished game.
type Result struct {
	Winner string
	Rank   int
	Hops   int
	Draw   bool
}

// Deal sends each player its hand.
func (dl *Dealer) Deal(players []wire.InboxRef, hands [][]int) error {
	for i, p := range players {
		if err := dl.d.SendDirect(p, "", &dealMsg{Hand: hands[i]}); err != nil {
			return err
		}
	}
	return nil
}

// Run injects the turn at the first player and waits for an announcement.
func (dl *Dealer) Run(first wire.InboxRef, maxHops int) (Result, error) {
	if err := dl.d.SendDirect(first, "", &turnMsg{MaxHops: maxHops}); err != nil {
		return Result{}, err
	}
	for {
		env, err := dl.d.Inbox(TableInbox).ReceiveEnvelope()
		if err != nil {
			return Result{}, err
		}
		a, ok := env.Body.(*announceMsg)
		if !ok {
			continue
		}
		return Result{Winner: a.Player, Rank: a.Rank, Hops: a.Hops, Draw: !a.Winner}, nil
	}
}
