package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/calendar"
	"repro/internal/directory"
	"repro/internal/failure"
	"repro/internal/session"
	"repro/internal/wire"
)

// The secretary-crash run's fixed shape: the detector's heartbeat
// period and missed-interval budget, how long a scheduler gather phase
// stalls on the dead secretary before the round is abandoned and
// retried, and the bound on the whole run. Site 0's secretary crashes.
const (
	recoveryHeartbeat    = 10 * time.Millisecond
	recoveryMultiplier   = 2
	recoverySchedTimeout = 500 * time.Millisecond
	recoveryDeadline     = 30 * time.Second
)

// RecoveryResult reports what a secretary-crash run measured.
type RecoveryResult struct {
	// Result is the successful scheduling outcome.
	Result calendar.Result
	// Detection is the time from the crash to the coordinator's Down
	// verdict.
	Detection time.Duration
	// Recovery is the time from the Down verdict to the session being
	// fully repaired: secretary restarted, membership restored from its
	// store, and every survivor relinked to the new incarnation.
	Recovery time.Duration
	// Retries counts scheduling attempts abandoned to the crash before
	// the successful one.
	Retries int
}

// RunSecretaryCrashRecovery builds the hierarchical calendar world,
// crashes one secretary the moment it receives its first scheduling
// request, and drives the full recovery loop the paper's fault-tolerance
// story implies but never exercises:
//
//	heartbeat detector notices the silence (suspect -> down)
//	-> the runtime restarts the secretary on the same host
//	-> the new incarnation restores its session membership from its
//	   surviving store (session.RestoreSessions)
//	-> the initiator swings every surviving channel to the new address
//	   (Handle.Reincarnate)
//	-> the scheduler retries the abandoned round and completes.
//
// opts configures the calendar world; Hierarchical is forced true (only
// the hierarchical wiring has secretaries to crash). The returned result
// carries the scheduling outcome plus measured detection and recovery
// latencies.
//
//wwlint:allowfile determinism this scenario measures real detector and recovery latencies with the wall clock; its result carries no replay digest
func RunSecretaryCrashRecovery(ctx context.Context, opts CalendarOptions) (*RecoveryResult, error) {
	opts.Hierarchical = true
	w, err := BuildCalendar(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	victim := w.Sites[0].Secretary
	victimD, ok := w.RT.Dapplet(victim)
	if !ok {
		return nil, fmt.Errorf("scenario: secretary %q not launched", victim)
	}

	detCfg := failure.Config{Interval: recoveryHeartbeat, Multiplier: recoveryMultiplier}

	// The coordinator watches every secretary; each secretary watches
	// the coordinator back (detection is bidirectional). Verdicts feed
	// the coordinator's session service so rosters track liveness.
	coordDet := failure.Attach(w.Coordinator, detCfg)
	failure.BindSession(coordDet, w.Sessions[w.Coordinator.Name()])
	for _, site := range w.Sites {
		d, ok := w.RT.Dapplet(site.Secretary)
		if !ok {
			return nil, fmt.Errorf("scenario: secretary %q not launched", site.Secretary)
		}
		coordDet.Watch(site.Secretary, d.Addr())
		secDet := failure.Attach(d, detCfg)
		secDet.Watch(w.Coordinator.Name(), w.Coordinator.Addr())
	}

	// Crash the victim the instant its first scheduling request arrives:
	// the negotiation is then provably mid-flight. The observer runs on
	// the victim's receive goroutine before the request reaches its
	// handler; blocking it until the crash lands guarantees the request
	// is never processed — the round stalls, deterministically. It waits
	// on Stopped, which Stop closes before the transport, whose Close
	// waits for this goroutine: so the crash runs on its own thread.
	var crashOnce sync.Once
	var mu sync.Mutex
	var crashedAt, downAt, recoveredAt time.Time
	crashErr := make(chan error, 1)
	victimD.OnRecv(func(env *wire.Envelope) {
		if env.To.Inbox != calendar.SecFromHead {
			return
		}
		crashOnce.Do(func() {
			mu.Lock()
			crashedAt = time.Now()
			mu.Unlock()
			go func() { crashErr <- w.RT.Crash(victim) }()
			<-victimD.Stopped()
		})
	})

	// Recovery pipeline, driven by the coordinator's Down verdict.
	recovered := make(chan error, 1)
	var downOnce sync.Once
	coordDet.OnEvent(func(ev failure.Event) {
		if ev.Peer != victim || ev.State != failure.Down {
			return
		}
		downOnce.Do(func() {
			mu.Lock()
			downAt = time.Now()
			mu.Unlock()
			go func() {
				err := recoverSecretary(ctx, w, coordDet, detCfg, victim)
				mu.Lock()
				recoveredAt = time.Now()
				mu.Unlock()
				recovered <- err
			}()
		})
	})

	// Drive scheduling; rounds stalled on the dead secretary are
	// abandoned after recoverySchedTimeout and retried once recovery
	// completes.
	w.Scheduler.SetTimeout(recoverySchedTimeout)
	deadline := time.Now().Add(recoveryDeadline)
	res := &RecoveryResult{}
	slots := w.Opts.Slots
	repaired := false
	for {
		r, err := w.Scheduler.Schedule(ctx, 0, slots, slots)
		if err == nil {
			res.Result = r
			break
		}
		if !errors.Is(err, calendar.ErrSchedTimeout) {
			return nil, err
		}
		res.Retries++
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("scenario: no recovery before deadline (%d retries)", res.Retries)
		}
		if repaired {
			// The session is already repaired; the timeout was ordinary
			// protocol latency (e.g. a round racing the relink). Retry.
			continue
		}
		// Wait for the repair to finish before burning another attempt.
		select {
		case err := <-recovered:
			if err != nil {
				return nil, fmt.Errorf("scenario: recovery failed: %w", err)
			}
			repaired = true
		case <-time.After(time.Until(deadline)):
			mu.Lock()
			detected := !downAt.IsZero()
			mu.Unlock()
			if detected {
				return nil, errors.New("scenario: repair pipeline did not complete before the deadline")
			}
			return nil, errors.New("scenario: detector never declared the secretary down")
		}
	}
	mu.Lock()
	fired := !crashedAt.IsZero()
	mu.Unlock()
	if !fired {
		return nil, errors.New("scenario: run completed without exercising the crash path")
	}
	if err := <-crashErr; err != nil {
		return nil, fmt.Errorf("scenario: crash injection: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if downAt.IsZero() || recoveredAt.IsZero() {
		return nil, errors.New("scenario: run completed without exercising the recovery path")
	}
	res.Detection = downAt.Sub(crashedAt)
	res.Recovery = recoveredAt.Sub(downAt)
	return res, nil
}

// recoverSecretary is the repair pipeline for one crashed secretary:
// restart, restore membership from the surviving store, re-register the
// new incarnation in the directory, relink the survivors (the repair
// resolves the new address through the directory — Handle.Reincarnate
// needs only the name), and resume watching the new incarnation.
func recoverSecretary(ctx context.Context, w *CalendarWorld, coordDet *failure.Detector, detCfg failure.Config, name string) error {
	d2, err := w.RT.Restart(name)
	if err != nil {
		return err
	}
	svc := session.Attach(d2, session.Policy{})
	w.Sessions[name] = svc
	if _, err := svc.RestoreSessions(); err != nil {
		return err
	}
	if err := w.Dir.Register(ctx, directory.Entry{Name: d2.Name(), Type: d2.Type(), Addr: d2.Addr()}); err != nil {
		return fmt.Errorf("scenario: re-register %s: %w", d2.Name(), err)
	}
	if err := w.Handle.Reincarnate(ctx, name); err != nil {
		return err
	}
	// The new incarnation heartbeats the coordinator (higher
	// incarnation number), lifting the Down verdict; the coordinator
	// re-aims its own heartbeats at the new address.
	secDet := failure.Attach(d2, failure.Config{
		Interval:    detCfg.Interval,
		Multiplier:  detCfg.Multiplier,
		Incarnation: uint64(w.RT.Incarnation(name)),
	})
	secDet.Watch(w.Coordinator.Name(), w.Coordinator.Addr())
	coordDet.Watch(name, d2.Addr())
	return nil
}
