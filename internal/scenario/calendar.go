// Package scenario assembles complete, ready-to-run worlds for the
// paper's example applications: simulated networks, installed dapplets,
// directories and live sessions. Tests, benchmarks and the demo binaries
// all build on it, so experiments measure identical configurations.
package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/world"
)

// CalendarOptions configures a calendar-application world.
type CalendarOptions struct {
	// Sites is the number of sites; each has one secretary (hierarchical
	// mode) and MembersPerSite calendar dapplets.
	Sites          int
	MembersPerSite int
	// Hierarchical selects the Figure 1 wiring (secretaries); otherwise
	// the coordinator links to every member directly.
	Hierarchical bool
	// Slots is the scheduling horizon (e.g. 14 days x 8 hours = 112).
	Slots int
	// BusyProb is each member's independent probability that a slot is
	// already booked.
	BusyProb float64
	// CommonSlot, when >= 0, is forced free in every calendar so a
	// solution exists there.
	CommonSlot int
	// Seed drives both the network and the calendar generation.
	Seed int64
	// Shards overrides the network's delivery shard count (0 uses the
	// netsim default, GOMAXPROCS). Shards=1 makes single-driver runs
	// bit-reproducible per seed.
	Shards int
}

func (o *CalendarOptions) defaults() {
	if o.Sites <= 0 {
		o.Sites = 3
	}
	if o.MembersPerSite <= 0 {
		o.MembersPerSite = 3
	}
	if o.Slots <= 0 {
		o.Slots = 112
	}
}

// appRTO is the retransmission timeout of every application world.
const appRTO = 50 * time.Millisecond

// CalendarWorld is an assembled calendar application over the
// process-local directory.
type CalendarWorld struct {
	*world.World
	Coordinator *core.Dapplet
	Scheduler   *calendar.HeadScheduler
	Traditional *calendar.Traditional
	Handle      *session.Handle
	Members     map[string]*calendar.MemberBehavior
	MemberNames []string
	Sites       []calendar.Site
	// Sessions maps each dapplet's instance name to its session service;
	// recovery flows need the service to restore membership on restart.
	Sessions map[string]*session.Service
	Opts     CalendarOptions
}

// siteName follows Figure 1's geography: members and their secretary
// share a site (LAN); sites are far apart (WAN).
func siteName(i int) string { return fmt.Sprintf("site%d", i) }

// BuildCalendar constructs the world: network, installed dapplets,
// directory, and (for the session scheduler) a linked-up session. ctx
// bounds the directory registrations and the session setup. On error
// the partly built world is closed.
func BuildCalendar(ctx context.Context, opts CalendarOptions) (*CalendarWorld, error) {
	opts.defaults()
	w := &CalendarWorld{
		World: world.New(transport.Config{RTO: appRTO},
			netsim.WithSeed(opts.Seed), netsim.WithShards(opts.Shards), netsim.WithDefaultDelay(netsim.LAN())),
		Members:  make(map[string]*calendar.MemberBehavior),
		Sessions: make(map[string]*session.Service),
		Opts:     opts,
	}
	if err := w.build(ctx); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

func (w *CalendarWorld) build(ctx context.Context) error {
	opts := w.Opts
	// Sites are far apart (WAN); the coordinator lives at site 0.
	for i := 0; i < opts.Sites; i++ {
		for j := i + 1; j < opts.Sites; j++ {
			w.Net.SetLinkDelay(siteName(i), siteName(j), netsim.WAN())
		}
	}

	// Behaviour registry with per-instance busy calendars handed out in
	// launch order (Go has no dynamic code loading; see DESIGN.md). Once
	// the build-time queue is drained, the factory serves Runtime.Restart:
	// a fresh incarnation starts with a blank calendar and recovers the
	// real one from its surviving store (MemberBehavior.Start loads the
	// persisted BusyVar).
	var mu sync.Mutex
	var queue []*calendar.MemberBehavior
	reg := w.RT.Registry()
	reg.Register("calendar", func() core.Behavior {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			return calendar.NewMember(opts.Slots, nil)
		}
		b := queue[0]
		queue = queue[1:]
		return b
	})
	reg.Register("secretary", func() core.Behavior { return calendar.NewSecretary(opts.Slots) })
	reg.Register("coordinator", func() core.Behavior { return calendar.CoordinatorBehavior{} })

	rng := rand.New(rand.NewSource(opts.Seed + 1))
	for i := 0; i < opts.Sites; i++ {
		site := calendar.Site{Secretary: fmt.Sprintf("secretary-%d", i)}
		host := siteName(i)
		for j := 0; j < opts.MembersPerSite; j++ {
			name := fmt.Sprintf("member-%d-%d", i, j)
			var busy []int
			for s := 0; s < opts.Slots; s++ {
				if s != opts.CommonSlot && rng.Float64() < opts.BusyProb {
					busy = append(busy, s)
				}
			}
			mb := calendar.NewMember(opts.Slots, busy)
			mu.Lock()
			queue = append(queue, mb)
			mu.Unlock()
			if _, err := w.Launch(ctx, host, "calendar", name); err != nil {
				return err
			}
			w.Members[name] = mb
			w.MemberNames = append(w.MemberNames, name)
			site.Members = append(site.Members, name)
		}
		if opts.Hierarchical {
			if _, err := w.Launch(ctx, host, "secretary", site.Secretary); err != nil {
				return err
			}
		}
		w.Sites = append(w.Sites, site)
	}

	coord, err := w.Launch(ctx, siteName(0), "coordinator", "coordinator")
	if err != nil {
		return err
	}
	w.Coordinator = coord
	w.Scheduler = calendar.NewHeadScheduler(coord, opts.Slots)

	// The session service on every participant.
	for _, d := range w.RT.Dapplets() {
		w.Sessions[d.Name()] = session.Attach(d, session.Policy{})
	}

	// Initiate the scheduling session from the coordinator (the
	// director's initiator dapplet, Figure 2).
	ini := session.NewInitiator(coord, w.Dir)
	var spec session.Spec
	if opts.Hierarchical {
		spec = calendar.HierarchySpec("calendar-session", "coordinator", w.Sites)
	} else {
		spec = calendar.FlatSpec("calendar-session", "coordinator", w.MemberNames)
	}
	h, err := ini.Initiate(ctx, spec)
	if err != nil {
		return fmt.Errorf("scenario: session setup: %w", err)
	}
	w.Handle = h

	// The traditional director drives the same member dapplets directly.
	refs := make([]wire.InboxRef, 0, len(w.MemberNames))
	for _, name := range w.MemberNames {
		e, err := w.Dir.MustLookup(ctx, name)
		if err != nil {
			return err
		}
		refs = append(refs, wire.InboxRef{Dapplet: e.Addr, Inbox: calendar.MemberInbox})
	}
	w.Traditional = calendar.NewTraditional(coord, refs, opts.Slots)
	return nil
}
