package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/designdoc"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/state"
	"repro/internal/tokens"
	"repro/internal/transport"
	"repro/internal/world"
)

// DesignOptions configures a collaborative-design world. Every
// designer runs on its own host over LAN links, with a 50 ms
// retransmission timeout.
type DesignOptions struct {
	// Designers is the team size; each designer runs on its own host.
	Designers int
	// Parts are the document part names; every designer is interested in
	// every part unless Interests is set.
	Parts []string
	// Interests optionally restricts designer i to Interests[i].
	Interests [][]string
	// UseTokens guards edits with per-part write tokens.
	UseTokens bool
	Seed      int64
}

// DesignWorld is an assembled collaborative-design session.
type DesignWorld struct {
	*world.World
	Designers []*designdoc.Designer
	Dapplets  []*core.Dapplet
	Alloc     *tokens.Allocator
	Handle    *session.Handle
}

// BuildDesign constructs the design-team session: a full mesh of update
// channels plus (optionally) a token allocator with one write token per
// part. ctx bounds the directory registrations and the session setup.
// On error the partly built world is closed.
func BuildDesign(ctx context.Context, opts DesignOptions) (*DesignWorld, error) {
	if opts.Designers <= 0 {
		opts.Designers = 3
	}
	if len(opts.Parts) == 0 {
		opts.Parts = []string{"frame", "engine", "ui"}
	}
	w := &DesignWorld{World: world.New(transport.Config{RTO: appRTO},
		netsim.WithSeed(opts.Seed), netsim.WithDefaultDelay(netsim.LAN()))}
	if err := w.build(ctx, opts); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

func (w *DesignWorld) build(ctx context.Context, opts DesignOptions) error {
	var queue []*designdoc.Designer
	w.RT.Registry().Register("designer", func() core.Behavior {
		b := queue[0]
		queue = queue[1:]
		return b
	})

	for i := 0; i < opts.Designers; i++ {
		interests := opts.Parts
		if opts.Interests != nil {
			interests = opts.Interests[i]
		}
		ds := designdoc.NewDesigner(interests)
		queue = append(queue, ds)
		d, err := w.Launch(ctx, fmt.Sprintf("studio%d", i), "designer", fmt.Sprintf("designer-%d", i))
		if err != nil {
			return err
		}
		w.Designers = append(w.Designers, ds)
		w.Dapplets = append(w.Dapplets, d)
		session.Attach(d, session.Policy{})
	}

	// Token allocator for part write locks lives on designer 0's dapplet.
	if opts.UseTokens {
		pop := tokens.Bag{}
		for _, p := range opts.Parts {
			pop[designdoc.TokenColor(p)] = 1
		}
		w.Alloc = tokens.Serve(w.Dapplets[0], pop)
		for _, ds := range w.Designers {
			ds.UseTokens(w.Alloc.Ref())
		}
	}

	// Session: full mesh of update channels ("the collection of dapplets
	// forms a network — a session — that lasts as long as the design").
	spec := session.Spec{ID: "design-session", Task: "collaborative design"}
	for i := range w.Dapplets {
		spec.Participants = append(spec.Participants, session.Participant{
			Name: fmt.Sprintf("designer-%d", i),
			Role: "designer",
			Access: state.AccessSet{
				Read:  []string{designdoc.PartsVar},
				Write: []string{designdoc.PartsVar},
			},
		})
	}
	for i := range w.Dapplets {
		for j := range w.Dapplets {
			if i == j {
				continue
			}
			spec.Links = append(spec.Links, session.Link{
				From:   fmt.Sprintf("designer-%d", i),
				Outbox: designdoc.UpdatesOutbox,
				To:     fmt.Sprintf("designer-%d", j),
				Inbox:  designdoc.UpdatesInbox,
			})
		}
	}
	ini := session.NewInitiator(w.Dapplets[0], w.Dir)
	h, err := ini.Initiate(ctx, spec)
	if err != nil {
		return err
	}
	w.Handle = h
	return nil
}
