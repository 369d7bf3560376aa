package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cardgame"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// CardOptions configures a card-game world. Every player runs on its
// own host over LAN links, with a 50 ms retransmission timeout.
type CardOptions struct {
	// Players is the ring size.
	Players int
	// HandSize is the number of cards dealt to each player.
	HandSize int
	// Ranks is the number of distinct card ranks in the deck.
	Ranks int
	Seed  int64
}

// CardWorld is an assembled ring-session card game.
type CardWorld struct {
	*world.World
	Players []*cardgame.Player
	Refs    []wire.InboxRef // each player's pred inbox
	Dealer  *cardgame.Dealer
	Hands   [][]int
	Handle  *session.Handle
}

// BuildCardGame constructs the ring session of §3.1 with dealt hands.
// ctx bounds the directory registrations and the session setup. On
// error the partly built world is closed.
func BuildCardGame(ctx context.Context, opts CardOptions) (*CardWorld, error) {
	if opts.Players < 2 {
		opts.Players = 4
	}
	if opts.HandSize <= 0 {
		opts.HandSize = 5
	}
	if opts.Ranks <= 0 {
		opts.Ranks = 6
	}
	w := &CardWorld{World: world.New(transport.Config{RTO: appRTO},
		netsim.WithSeed(opts.Seed), netsim.WithDefaultDelay(netsim.LAN()))}
	if err := w.build(ctx, opts); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

func (w *CardWorld) build(ctx context.Context, opts CardOptions) error {
	var queue []*cardgame.Player
	reg := w.RT.Registry()
	reg.Register("player", func() core.Behavior {
		p := queue[0]
		queue = queue[1:]
		return p
	})
	reg.Register("dealer", core.Factory(func() core.Behavior {
		return core.BehaviorFunc(func(d *core.Dapplet) error {
			d.Inbox(cardgame.TableInbox)
			return nil
		})
	}))

	names := make([]string, opts.Players)
	for i := 0; i < opts.Players; i++ {
		p := cardgame.NewPlayer()
		queue = append(queue, p)
		names[i] = fmt.Sprintf("player-%d", i)
		d, err := w.Launch(ctx, fmt.Sprintf("parlor%d", i), "player", names[i])
		if err != nil {
			return err
		}
		w.Players = append(w.Players, p)
		w.Refs = append(w.Refs, wire.InboxRef{Dapplet: d.Addr(), Inbox: cardgame.PredInbox})
		session.Attach(d, session.Policy{})
	}
	dealerD, err := w.Launch(ctx, "casino", "dealer", "dealer")
	if err != nil {
		return err
	}
	session.Attach(dealerD, session.Policy{})
	w.Dealer = cardgame.NewDealer(dealerD)

	// Ring links plus announcement links to the dealer.
	spec := session.Spec{ID: "card-game", Task: "distributed card game"}
	spec.Participants = append(spec.Participants, session.Participant{Name: "dealer", Role: "dealer"})
	for i, n := range names {
		spec.Participants = append(spec.Participants, session.Participant{Name: n, Role: "player"})
		spec.Links = append(spec.Links,
			session.Link{From: n, Outbox: cardgame.SuccOutbox, To: names[(i+1)%opts.Players], Inbox: cardgame.PredInbox},
			session.Link{From: n, Outbox: cardgame.AnnounceOutbox, To: "dealer", Inbox: cardgame.TableInbox},
		)
	}
	ini := session.NewInitiator(dealerD, w.Dir)
	h, err := ini.Initiate(ctx, spec)
	if err != nil {
		return err
	}
	w.Handle = h

	// Deal deterministic hands.
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	w.Hands = make([][]int, opts.Players)
	for i := range w.Hands {
		hand := make([]int, opts.HandSize)
		for j := range hand {
			hand[j] = rng.Intn(opts.Ranks)
		}
		w.Hands[i] = hand
	}
	return w.Dealer.Deal(w.Refs, w.Hands)
}

// TotalCards returns the number of cards dealt.
func (w *CardWorld) TotalCards() int {
	n := 0
	for _, h := range w.Hands {
		n += len(h)
	}
	return n
}

// CardsHeld sums the cards currently in players' hands.
func (w *CardWorld) CardsHeld() int {
	n := 0
	for _, p := range w.Players {
		n += len(p.Hand())
	}
	return n
}
