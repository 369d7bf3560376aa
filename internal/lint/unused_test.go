package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// keepUnused lists the exported identifiers of internal/ that nothing
// the program runs refers to but that stay, each with its reason. A key
// is the package path below internal/, then the receiver type for a
// method or the struct type for a field, then the name:
// "netsim.Network.SetLoss".
var keepUnused = map[string]string{
	"core.Inbox.TryReceive":            "tests take a message without waiting, to see what the receive path delivered",
	"core.Runtime.Installed":           "tests observe Install, and world.Launch's install step, through it",
	"directory.Directory.Len":          "tests observe the process-local directory's registrations through it",
	"directory.Service.Len":            "tests observe replica fan-out and convergence through it",
	"directory.Service.Remove":         "the anti-entropy test lays a tombstone at one replica with it",
	"directory.Service.VersionVector":  "the anti-entropy test checks a converged replica's version vector through it",
	"directory.WithRotateBack":         "lets the fail-over test reach the rotate-back probe in bounded time, until tests run on a virtual clock",
	"experiment.Full":                  scaleValue,
	"experiment.Result.Exp":            "wwbench's -out report, written by encoding/json, names each cell's experiment with it",
	"experiment.Smoke":                 scaleValue,
	"experiment.Std":                   scaleValue,
	"failure.AutoRepair":               "the detector-driven session repair loop; TestAutoRepair* drive it and CI repeats them",
	"failure.BindTreeRepair":           "the detector-driven relay-tree repair loop; TestBindTreeRepair* drive it and CI repeats them",
	"failure.Detector.Addr":            "tests read a detector's address to aim partitions and verdicts at it",
	"lint/lintest.Run":                 "the analyzer fixture harness: its callers are the lint tests by design",
	"netsim.Endpoint.RecvTimeout":      "fault injection: tests wait, bounded, for a datagram a partition or loss must stop",
	"netsim.Host.Bind":                 "tests bind fixed ports, so a peer's address is known before it binds",
	"netsim.Network.Crashed":           "fault injection: tests read a host's crash state",
	"netsim.Network.SetLoss":           "fault injection: tests drive loss into transport, failure and the integration test",
	"netsim.Network.Shards":            "the shard tests read the shard count WithShards set",
	"relay.Relay.Bound":                relayView,
	"relay.Relay.Epoch":                relayView,
	"relay.Relay.Neighbors":            relayView,
	"relay.Stats.TTLDrops":             "counts frames dropped at a spent hop budget, a drop no experiment prints yet; it stays for ROADMAP item 10(a)'s telemetry registry",
	"relay.Tree.Neighbors":             "the layout rule's projection onto members: relay, core and session tests build bindings and oracles from it",
	"scenario.DesignOptions.Interests": "paper §2.1: an edit reaches only the appropriate members; TestInterestFiltering narrows a designer's interests, which no program does",
	"session.Handle.Grow":              "paper §3: a session grows; session tests and the integration test drive it",
	"session.Handle.Shrink":            "paper §3: a session shrinks; session tests drive it",
	"session.Membership.Peer":          "tests read a participant's roster by role to observe set-up and relinks",
	"session.Membership.Peers":         "tests read a participant's roster by role to observe set-up and relinks",
	"session.Membership.PeerDown":      "tests observe MarkPeerDown and MarkPeerUp verdicts through it",
	"session.Policy.ACL":               "paper §3.1: the access control list a participant judges an invitation by; TestACLRejection drives it",
	"session.Membership.Tree":          "the tree tests observe each member's installed tree and epoch through it",
	"session.Service.Membership":       "tests reach a participant's membership through it",
	"session.Service.Sessions":         "tests observe linking and unlinking through it",
	"snapshot.ReplayChannels":          "paper §4: replaying a checkpoint's recorded channel state; the replay tests drive it",
	"snapshot.Service.Pending":         "tests observe that a member's snapshot runs drain through it",
	"state.Store.Acquire":              "paper §2.2: the serializing policy beside TryAcquire's rejecting one; store and syncprim tests drive it",
	"state.Store.LiveSessions":         "tests observe session access being taken and released through it",
	"state.Store.View":                 stateView,
	"state.View.Get":                   stateView,
	"state.View.Set":                   stateView,
	"svc.Ctx.Envelope":                 "the receive-path test observes a delivered request's filled-in addresses through it",
	"svc.ErrNoHandler":                 "TestNoHandlerIsTypedError observes a server's unknown-kind answer through it",
	"syncprim.Barrier.Await":           syncprimConstruct,
	"syncprim.BoundedChannel.Close":    syncprimConstruct,
	"syncprim.BoundedChannel.Len":      syncprimConstruct,
	"syncprim.BoundedChannel.Put":      syncprimConstruct,
	"syncprim.BoundedChannel.Take":     syncprimConstruct,
	"syncprim.Client.RegisterGet":      syncprimConstruct,
	"syncprim.Client.RegisterSet":      syncprimConstruct,
	"syncprim.DistSemaphore.P":         syncprimConstruct,
	"syncprim.DistSemaphore.V":         syncprimConstruct,
	"syncprim.NewBarrier":              syncprimConstruct,
	"syncprim.NewBoundedChannel":       syncprimConstruct,
	"syncprim.NewDistSemaphore":        syncprimConstruct,
	"syncprim.NewSemaphore":            syncprimConstruct,
	"syncprim.NewSingleAssignment":     syncprimConstruct,
	"syncprim.RegisterService.Ref":     syncprimConstruct,
	"syncprim.Semaphore.Acquire":       syncprimConstruct,
	"syncprim.Semaphore.Close":         syncprimConstruct,
	"syncprim.Semaphore.Permits":       syncprimConstruct,
	"syncprim.Semaphore.Release":       syncprimConstruct,
	"syncprim.Semaphore.TryAcquire":    syncprimConstruct,
	"syncprim.ServeRegisters":          syncprimConstruct,
	"syncprim.SingleAssignment.Done":   syncprimConstruct,
	"syncprim.SingleAssignment.Get":    syncprimConstruct,
	"syncprim.SingleAssignment.Set":    syncprimConstruct,
	"syncprim.SingleAssignment.TryGet": syncprimConstruct,
	"swarm.Config.Lockstep":            "the swarm's one reproducible schedule: TestLockstepDeterminism serializes churn to pin the event log in bounded time",
	"tokens.Manager.TotalTokens":       "tests observe token conservation through it",
	"tokens.NewRWLock":                 rwLock,
	"tokens.RWLock.Lock":               rwLock,
	"tokens.RWLock.RLock":              rwLock,
	"tokens.RWLock.RUnlock":            rwLock,
	"tokens.RWLock.Unlock":             rwLock,
	"transport.Config.AckDelay":        "tests hold the delayed ack apart from RTO/8: the coalescing tests put it out of reach, and the channel model keeps it at 2ms against a 100ms RTO so that delayed acks and timer resends interleave on its virtual clock",
	"transport.Config.MaxRetries":      "the give-up tests and the channel model set one to three expiries to reach the give-up path (Stats.Failures) and the floor past it; tests over long cuts set large budgets so that no frame is given up",
	"transport.Reliable.RTT":           "the recovery tests observe the RTT estimator and its back-off through it",
	"wire.EnvelopeDecoder.Decode":      "the whole-frame decode (Header, then Payload) the envelope fuzzer and the wire tests check",
}

// Reasons shared by several keepUnused entries.
const (
	scaleValue        = "a Scale ParseScale returns by its index in scaleNames"
	relayView         = "session tests observe a relay's installed tree through it"
	stateView         = "paper §2.2: a session's restricted window onto a dapplet's state; store and integration tests drive it"
	syncprimConstruct = "paper §4: a synchronization construct (E6 runs the distributed barrier); syncprim's tests drive the rest"
	rwLock            = "paper §4.1: the readers-writer lock built on tokens; tokens and wwds tests drive it"
)

// TestNoUnusedExports fails on an exported identifier of internal/ that
// no program path refers to: nothing in a non-test file of the module
// and nothing under bench/ (whose tests are frozen with it) names it. A
// method counts as used when its type implements, with it, an interface
// the program names, or one that fmt or errors calls (String, Error, Is,
// Unwrap). An exported field of an exported struct type is a dial that
// something, tests included, must read; a field of a configuration
// struct (knobType) and a With* option are knobs, and a program file
// outside the declaring package must also set them, by a composite
// literal key, an assignment or a call. What only its own tests use goes
// with those tests; what stays is listed in keepUnused, and an entry
// that names nothing unused fails too, so the table cannot go stale.
func TestNoUnusedExports(t *testing.T) {
	w, err := moduleWorld()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	s := scanExports(w)
	var unused []string
	for key := range s.decls {
		if !s.used[key] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := keepUnused[key]; ok {
			continue
		}
		t.Errorf("%s: %s %s", s.decls[key], key, s.finding(key))
	}
	for key := range keepUnused {
		if _, ok := s.decls[key]; !ok {
			t.Errorf("keepUnused lists %s, which is no longer declared", key)
		} else if s.used[key] {
			t.Errorf("keepUnused lists %s, which the program now uses", key)
		}
	}
}

// knobType names the configuration structs whose fields are knobs.
var knobType = regexp.MustCompile(`^(Config|Spec|Policy|\w*Options|\w*Params)$`)

// exportScan holds what TestNoUnusedExports finds in the loaded module.
type exportScan struct {
	internal string                    // the module's internal/ import path, with a trailing slash
	decls    map[string]token.Position // exported declarations of internal/, by key
	used     map[string]bool           // keys the program refers to
	ifaces   []*types.Interface        // interfaces the program names
	named    []*types.Named            // internal/ types with methods, from their own packages
	fields   map[string]bool           // exported fields of exported internal/ struct types
	knobs    map[string]bool           // With* options, and fields of knobType structs
	read     map[string]bool           // fields something reads, tests included
	set      map[string]bool           // knobs a program file outside their package sets
}

// finding says why key is reported, by the rule it breaks.
func (s *exportScan) finding(key string) string {
	switch {
	case s.fields[key] && !s.read[key]:
		return "is a field that nothing reads, tests included: delete it with the code that feeds it, or add it to keepUnused with the reason it stays"
	case s.knobs[key] && !s.set[key]:
		return "is a knob that no program outside its package sets: make its value a constant, or add it to keepUnused with the path only a test value reaches in bounded time"
	}
	return "is exported but nothing the program runs uses it: delete it with the tests that are its only callers, or add it to keepUnused with the reason it stays"
}

func scanExports(w *lint.World) *exportScan {
	s := &exportScan{
		internal: w.Packages[0].Module + "/internal/",
		decls:    make(map[string]token.Position),
		used:     make(map[string]bool),
		fields:   make(map[string]bool),
		knobs:    make(map[string]bool),
		read:     make(map[string]bool),
		set:      make(map[string]bool),
	}
	seenTypes := make(map[types.Type]bool)
	for _, p := range w.Packages {
		if !p.XTest && strings.HasPrefix(p.Path, s.internal) {
			root := strings.TrimSuffix(p.Dir, filepath.FromSlash(strings.TrimPrefix(p.Path, p.Module)))
			s.declare(w.Fset, p, root)
		}
		bench := p.Path == p.Module+"/bench" || strings.HasPrefix(p.Path, p.Module+"/bench/")
		user := func(pos token.Pos) bool {
			f := w.Fset.File(pos)
			return f != nil && (bench || !strings.HasSuffix(f.Name(), "_test.go"))
		}
		for _, f := range p.Files {
			if user(f.Pos()) {
				s.scanUses(p, f)
			}
			s.scanFields(p, f, user(f.Pos()))
		}
		for e, tv := range p.Info.Types {
			if user(e.Pos()) {
				s.collect(tv.Type, seenTypes)
			}
		}
	}
	// fmt and errors call these through interfaces the program need not name.
	errType := types.Universe.Lookup("error").Type()
	method := func(name string, param, result types.Type) *types.Interface {
		tuple := func(t types.Type) *types.Tuple {
			if t == nil {
				return nil
			}
			return types.NewTuple(types.NewVar(token.NoPos, nil, "", t))
		}
		sig := types.NewSignatureType(nil, nil, nil, tuple(param), tuple(result), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	s.ifaces = append(s.ifaces, errType.Underlying().(*types.Interface),
		method("String", nil, types.Typ[types.String]),
		method("Is", errType, types.Typ[types.Bool]),
		method("Unwrap", nil, errType))
	for _, n := range s.named {
		s.implements(n)
	}
	for key := range s.fields {
		s.used[key] = s.read[key]
	}
	for key := range s.knobs {
		s.used[key] = s.used[key] && s.set[key]
	}
	return s
}

// declare records p's exported package-level declarations and the
// exported methods of its types, those of its test files aside.
func (s *exportScan) declare(fset *token.FileSet, p *lint.Package, root string) {
	at := func(obj types.Object) (token.Position, bool) {
		pos := fset.Position(obj.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			return pos, false
		}
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		return pos, true
	}
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		pos, ok := at(obj)
		if !ok {
			continue
		}
		if obj.Exported() {
			s.decls[s.key(obj)] = pos
			if _, ok := obj.(*types.Func); ok && strings.HasPrefix(name, "With") {
				s.knobs[s.key(obj)] = true
			}
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok && tn.Exported() {
			for f := range st.Fields() {
				if pos, ok := at(f); ok && f.Exported() && !f.Embedded() {
					key := s.key(tn) + "." + f.Name()
					s.decls[key] = pos
					s.fields[key] = true
					if knobType.MatchString(name) {
						s.knobs[key] = true
					}
				}
			}
		}
		n, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(n) || n.NumMethods() == 0 {
			continue
		}
		s.named = append(s.named, n)
		for i := range n.NumMethods() {
			if m := n.Method(i); m.Exported() {
				if pos, ok := at(m); ok {
					s.decls[s.key(m)] = pos
				}
			}
		}
	}
}

// scanUses marks what f refers to as used, a function's references to
// itself aside.
func (s *exportScan) scanUses(p *lint.Package, f *ast.File) {
	for _, decl := range f.Decls {
		self := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = s.key(p.Info.Defs[fd.Name])
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] != nil {
				if key := s.key(p.Info.Uses[id]); key != "" && key != self {
					s.used[key] = true
				}
			}
			return true
		})
	}
}

// scanFields records which exported fields of internal/ structs f reads
// and, when f is a program file, which knobs it sets: a field by a
// composite literal key or an assignment, a With* option by naming it.
// Taking a field's address both sets and reads it.
func (s *exportScan) scanFields(p *lint.Package, f *ast.File, program bool) {
	set := func(key, pkg string) {
		if program && key != "" && pkg != p.Path {
			s.set[key] = true
		}
	}
	lhs := make(map[ast.Expr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs[ast.Unparen(e)] = true
			}
		case *ast.IncDecStmt:
			lhs[ast.Unparen(n.X)] = true
		case *ast.UnaryExpr:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
				set(s.fieldKey(p, sel))
			}
		case *ast.CompositeLit:
			t := p.Info.TypeOf(n)
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				field := st.Field(i).Name()
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					field = kv.Key.(*ast.Ident).Name
				}
				set(s.ownerKey(t, field))
			}
		case *ast.SelectorExpr:
			switch key, pkg := s.fieldKey(p, n); {
			case key == "":
			case lhs[n]:
				set(key, pkg)
			default:
				s.read[key] = true
			}
		case *ast.Ident:
			if fn, ok := p.Info.Uses[n].(*types.Func); ok && strings.HasPrefix(fn.Name(), "With") {
				set(s.key(fn), fn.Pkg().Path())
			}
		}
		return true
	})
}

// fieldKey names the field sel selects, and its package, or is "" when
// sel selects no field of a named internal/ struct.
func (s *exportScan) fieldKey(p *lint.Package, sel *ast.SelectorExpr) (string, string) {
	selection := p.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return "", ""
	}
	// The field's owner is the struct at the end of the embedding path.
	t := selection.Recv()
	path := selection.Index()
	for _, i := range path[:len(path)-1] {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		t = t.Underlying().(*types.Struct).Field(i).Type()
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return s.ownerKey(t, selection.Obj().Name())
}

// ownerKey names field of the named struct type t, and its package, as
// keepUnused does, or is "" when t is not a named type of internal/.
func (s *exportScan) ownerKey(t types.Type, field string) (string, string) {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", ""
	}
	key := s.key(n.Obj())
	if key == "" {
		return "", ""
	}
	return key + "." + field, n.Obj().Pkg().Path()
}

// collect walks t for the interfaces it names.
func (s *exportScan) collect(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		s.collect(t.Underlying(), seen)
	case *types.Alias:
		s.collect(types.Unalias(t), seen)
	case *types.Interface:
		if t.NumMethods() > 0 && t.IsMethodSet() {
			s.ifaces = append(s.ifaces, t)
		}
	case *types.Pointer:
		s.collect(t.Elem(), seen)
	case *types.Slice:
		s.collect(t.Elem(), seen)
	case *types.Array:
		s.collect(t.Elem(), seen)
	case *types.Chan:
		s.collect(t.Elem(), seen)
	case *types.Map:
		s.collect(t.Key(), seen)
		s.collect(t.Elem(), seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for v := range tup.Variables() {
				s.collect(v.Type(), seen)
			}
		}
	case *types.Struct:
		for i := range t.NumFields() {
			s.collect(t.Field(i).Type(), seen)
		}
	}
}

// implements marks the methods by which n, or *n, implements one of the
// collected interfaces. Each package is typechecked on its own, so the
// same type has a different object in each package that names it, and
// signatures are compared as their parameter and result types, written
// out qualified by package path.
func (s *exportScan) implements(n *types.Named) {
	ms := types.NewMethodSet(types.NewPointer(n))
	qual := func(p *types.Package) string { return p.Path() }
	sig := func(f *types.Func) string {
		var b strings.Builder
		sig := f.Signature()
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for v := range tup.Variables() {
				b.WriteString(types.TypeString(v.Type(), qual) + ";")
			}
			b.WriteString("|")
		}
		if sig.Variadic() {
			b.WriteString("...")
		}
		return b.String()
	}
	for _, iface := range s.ifaces {
		var sels []*types.Selection
		for m := range iface.Methods() {
			sel := ms.Lookup(m.Pkg(), m.Name())
			if sel == nil || sig(sel.Obj().(*types.Func)) != sig(m) {
				sels = nil
				break
			}
			sels = append(sels, sel)
		}
		for _, sel := range sels {
			if key := s.key(sel.Obj()); key != "" {
				s.used[key] = true
			}
		}
	}
}

// key names obj as keepUnused does, or is "" when obj is not a
// package-level object or method of internal/.
func (s *exportScan) key(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil || !strings.HasPrefix(pkg.Path(), s.internal) {
		return ""
	}
	rel := strings.TrimPrefix(pkg.Path(), s.internal)
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return rel + "." + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != pkg.Scope() {
		return ""
	}
	return rel + "." + obj.Name()
}
