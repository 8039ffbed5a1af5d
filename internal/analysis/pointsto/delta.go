package pointsto

import (
	"fmt"
	"sort"
	"strings"

	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
)

// SolveDelta (PR 9) re-solves the pointer analysis after an edit by
// re-seeding the difference-propagation worklist instead of starting
// from an empty graph. The caller supplies the previous complete Result
// (solved with Config.RetainState), the newly lowered program, an
// ir.ProgramMap aligning the unchanged methods, and the depgraph view
// of the edit: removed lists old-world qualified names whose units are
// gone or changed, added lists new-world names that are new or changed
// (a changed unit appears in both).
//
// The algorithm runs in three acts over the retained constraint graph:
//
//  1. Dirtiness: a fixpoint marks every node, abstract object, and
//     field cell whose points-to content could differ in the new world,
//     seeded symmetrically from the old and new versions of the edited
//     bodies (stores, call cones by callee name, edited registers and
//     allocation sites) and closed under the solver's own propagation
//     rules (copy successors, filters, loads, stores at field-name
//     granularity, virtual dispatch). Interleaved with it, an
//     under-approximate reachability pass — rooted at the entries and
//     at calls whose target is certain, traversing only call sites
//     whose receiver is clean — retires contexts that may have become
//     unreachable: their heap contributions are marked dirty too.
//  2. Carry: clean ("inert") contexts and clean objects are replanted
//     into a fresh solver under their new-world identities with their
//     fixpoint points-to sets and empty frontiers, in the previous
//     result's canonical order. Inert bodies are never reprocessed; on
//     first reach only their call sites are replayed (reach's pending
//     hook) so call edges and argument/return flow regenerate.
//  3. Solve: the normal worklist drains the dirty frontier. finish()
//     canonicalizes IDs, so a delta result is byte-identical to a cold
//     solve of the new program — the equivalence suites assert this.
//
// Any precondition failure or internal inconsistency returns an error;
// the session then falls back to a full Analyze. Two runtime safety
// nets guard the dirtiness analysis itself: every carried context must
// be dynamically re-reached (pending must drain), and no carried node
// may end with a points-to set larger than it was carried with.
func SolveDelta(prev *Result, prog *ir.Program, pm *ir.ProgramMap, removed, added []string, cfg Config) (*Result, DeltaStats, error) {
	var stats DeltaStats
	ps := prev.solver
	if ps == nil {
		return nil, stats, fmt.Errorf("pointsto: delta: previous result has no retained solver state")
	}
	if prev.Truncated || prev.Downgraded || prev.LimitErr != nil {
		return nil, stats, fmt.Errorf("pointsto: delta: previous result is incomplete")
	}
	if cfg.Budget != nil {
		return nil, stats, fmt.Errorf("pointsto: delta: metered budgets are not supported")
	}
	if err := cfgCompatible(ps.cfg, cfg); err != nil {
		return nil, stats, err
	}

	d := &deltaState{prev: prev, ps: ps, prog: prog, pm: pm, cfg: cfg}
	if err := d.init(removed, added); err != nil {
		return nil, stats, err
	}
	d.seed()
	d.fixpoint()

	res, err := d.carryAndSolve(&stats)
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}

// DeltaStats describes how much work a SolveDelta reused.
type DeltaStats struct {
	PrevCtxs       int // contexts in the previous result
	CarriedCtxs    int // contexts carried inert (bodies not reprocessed)
	PrevObjects    int
	CarriedObjects int
	DirtyNodes     int // constraint nodes invalidated by the edit
	PrevNodes      int
	// Inert holds the new-world contexts that were carried without
	// reprocessing: their per-register points-to sets are identical to
	// the previous solve. The SDG delta keys its per-context reuse off
	// this set.
	Inert map[*MCtx]bool
}

func cfgCompatible(old, new Config) error {
	depth := func(d int) int {
		if d == 0 {
			return 3
		}
		return d
	}
	containers := func(c Config) string {
		if !c.ObjSensContainers {
			return ""
		}
		s := append([]string(nil), c.ContainerClasses...)
		sort.Strings(s)
		return strings.Join(s, "\x00")
	}
	if old.ObjSensContainers != new.ObjSensContainers ||
		old.NoCycleElim != new.NoCycleElim ||
		depth(old.MaxCtxDepth) != depth(new.MaxCtxDepth) ||
		containers(old) != containers(new) {
		return fmt.Errorf("pointsto: delta: analysis configuration changed since the previous solve")
	}
	return nil
}

// bodyScan caches the per-method facts the dirtiness analysis needs.
type bodyScan struct {
	storedFields  []string // qualified names of ref-typed SetField targets
	storedStatics []string // qualified names of ref-typed SetStatic targets
	elemStore     bool     // has a ref-typed ArrayStore
	calls         []*ir.Call
}

// elemField is the dirtyField sentinel for array-element cells.
const elemField = "[]"

type deltaState struct {
	prev *Result
	ps   *solver
	prog *ir.Program
	pm   *ir.ProgramMap
	cfg  Config

	oldByQ     map[string]*ir.Method
	removedOld map[*ir.Method]bool     // old methods whose unit changed or vanished
	addedNew   map[*ir.Method]bool     // new methods whose unit changed or appeared
	siteMethod []*ir.Method            // old instruction ID -> old method
	byName     map[string][]*ir.Method // old methods by simple name (virtual cones)
	scans      map[*ir.Method]*bodyScan
	containers map[string]bool

	// Reverse view of the previous solver's field/static cells: when a
	// representative node is dirtied, every cell it stands for dirties
	// its field name too, so inertness (which reasons by stored names)
	// stays consistent with node-level dirt.
	fieldKeysByRep map[int32][]objFieldKey
	staticsByRep   map[int32][]*types.FieldInfo

	dirtyNode    []bool
	nodeQ        []int32
	dirtyObj     []bool
	dirtyObjBits bitset
	dirtyField   map[string]bool
	dirtyStatic  map[string]bool
	reached      map[*MCtx]bool
	purged       map[*MCtx]bool
	changed      bool
}

func (d *deltaState) init(removed, added []string) error {
	oldProg := d.prev.prog
	d.oldByQ = methodsByQName(oldProg)
	newByQ := methodsByQName(d.prog)
	d.removedOld = make(map[*ir.Method]bool, len(removed))
	for _, q := range removed {
		m := d.oldByQ[q]
		if m == nil {
			return fmt.Errorf("pointsto: delta: removed unit %s not in previous program", q)
		}
		d.removedOld[m] = true
	}
	d.addedNew = make(map[*ir.Method]bool, len(added))
	for _, q := range added {
		m := newByQ[q]
		if m == nil {
			return fmt.Errorf("pointsto: delta: added unit %s not in new program", q)
		}
		d.addedNew[m] = true
	}
	// Every method must be accounted for: unchanged (mapped) or edited.
	for _, m := range oldProg.Methods {
		if !d.removedOld[m] && d.pm.Method[m] == nil {
			return fmt.Errorf("pointsto: delta: old unit %s neither mapped nor removed", m.Name())
		}
	}
	mapped := make(map[*ir.Method]bool, len(d.pm.Method))
	for _, nm := range d.pm.Method { //determinism:ok — set build, order-free
		mapped[nm] = true
	}
	for _, m := range d.prog.Methods {
		if !d.addedNew[m] && !mapped[m] {
			return fmt.Errorf("pointsto: delta: new unit %s neither mapped nor added", m.Name())
		}
	}

	d.siteMethod = make([]*ir.Method, oldProg.NumInstrs)
	d.byName = make(map[string][]*ir.Method)
	for _, m := range oldProg.Methods {
		m := m
		m.Instrs(func(ins ir.Instr) { d.siteMethod[ins.ID()] = m })
		d.byName[m.Sig.Name] = append(d.byName[m.Sig.Name], m)
	}
	d.scans = make(map[*ir.Method]*bodyScan)
	d.containers = make(map[string]bool)
	if d.cfg.ObjSensContainers {
		for _, c := range d.cfg.ContainerClasses {
			d.containers[c] = true
		}
	}

	d.fieldKeysByRep = make(map[int32][]objFieldKey, len(d.ps.fieldNodes))
	for k, n := range d.ps.fieldNodes { //determinism:ok — feeds boolean dirt marks only
		id := d.ps.findID(n.id)
		d.fieldKeysByRep[id] = append(d.fieldKeysByRep[id], k)
	}
	d.staticsByRep = make(map[int32][]*types.FieldInfo, len(d.ps.staticNode))
	for f, n := range d.ps.staticNode { //determinism:ok — feeds boolean dirt marks only
		id := d.ps.findID(n.id)
		d.staticsByRep[id] = append(d.staticsByRep[id], f)
	}

	d.dirtyNode = make([]bool, len(d.ps.nodes))
	d.dirtyObj = make([]bool, len(d.prev.objects))
	d.dirtyField = make(map[string]bool)
	d.dirtyStatic = make(map[string]bool)
	d.purged = make(map[*MCtx]bool)
	return nil
}

func (d *deltaState) scan(m *ir.Method) *bodyScan {
	if sc := d.scans[m]; sc != nil {
		return sc
	}
	sc := &bodyScan{}
	m.Instrs(func(ins ir.Instr) {
		switch ins := ins.(type) {
		case *ir.SetField:
			if isRefType(ins.Val.Typ) {
				sc.storedFields = append(sc.storedFields, ins.Field.QualifiedName())
			}
		case *ir.SetStatic:
			if isRefType(ins.Val.Typ) {
				sc.storedStatics = append(sc.storedStatics, ins.Field.QualifiedName())
			}
		case *ir.ArrayStore:
			if isRefType(ins.Val.Typ) {
				sc.elemStore = true
			}
		case *ir.Call:
			sc.calls = append(sc.calls, ins)
		}
	})
	d.scans[m] = sc
	return sc
}

func (d *deltaState) markNode(n *node) {
	d.markNodeID(d.ps.findID(n.id))
}

func (d *deltaState) markNodeID(id int32) {
	if d.dirtyNode[id] {
		return
	}
	d.dirtyNode[id] = true
	d.changed = true
	d.nodeQ = append(d.nodeQ, id)
	// A dirty cell dirties its field name so inertness and carry
	// selection agree with node-level dirt.
	for _, k := range d.fieldKeysByRep[id] {
		if k.field == nil {
			d.addFieldDirt(elemField)
		} else {
			d.addFieldDirt(k.field.QualifiedName())
		}
	}
	for _, f := range d.staticsByRep[id] {
		d.addStaticDirt(f.QualifiedName())
	}
}

func (d *deltaState) addFieldDirt(q string) {
	if !d.dirtyField[q] {
		d.dirtyField[q] = true
		d.changed = true
	}
}

func (d *deltaState) addStaticDirt(q string) {
	if !d.dirtyStatic[q] {
		d.dirtyStatic[q] = true
		d.changed = true
	}
}

func (d *deltaState) markObj(o *Object) {
	if d.dirtyObj[o.ID] {
		return
	}
	d.dirtyObj[o.ID] = true
	d.dirtyObjBits.add(o.ID)
	d.changed = true
}

// markFormals dirties every parameter node of a previous context: its
// callers' argument flow may have changed.
func (d *deltaState) markFormals(mc *MCtx) {
	for _, p := range mc.Method.Params {
		if n, ok := d.ps.varNodes[varKey{p.Dst, mc.Ctx}]; ok {
			d.markNode(n)
		}
	}
}

// cone dirties the formals of every previous context a call site could
// have bound or could now bind: static and constructor calls name their
// target, virtual calls cover every method sharing the callee name.
func (d *deltaState) cone(call *ir.Call) {
	switch call.Mode {
	case ir.CallStatic, ir.CallCtor:
		if m := d.oldByQ[call.Callee.QualifiedName()]; m != nil {
			for _, mc := range d.prev.mctxsOf[m] {
				d.markFormals(mc)
			}
		}
	case ir.CallVirtual:
		for _, m := range d.byName[call.Callee.Name] {
			for _, mc := range d.prev.mctxsOf[m] {
				d.markFormals(mc)
			}
		}
	}
}

// seed plants the structural dirt of the edit, symmetrically over the
// old and new versions of the edited units: old-side registers and
// allocation sites, and both sides' stores and call cones (a removed
// store or call shrinks points-to sets just as an added one grows
// them).
func (d *deltaState) seed() {
	for _, m := range d.prev.prog.Methods {
		if !d.removedOld[m] {
			continue
		}
		for _, reg := range ir.MethodRegs(m) {
			for _, n := range d.prev.regNodes[reg] {
				d.markNode(n)
			}
		}
		d.seedScan(d.scan(m))
	}
	for _, o := range d.prev.objects {
		if d.removedOld[d.siteMethod[o.Site.ID()]] {
			d.markObj(o)
		}
	}
	for _, m := range d.prog.Methods {
		if d.addedNew[m] {
			d.seedScan(d.scan(m))
		}
	}
}

func (d *deltaState) seedScan(sc *bodyScan) {
	for _, q := range sc.storedFields {
		d.addFieldDirt(q)
	}
	for _, q := range sc.storedStatics {
		d.addStaticDirt(q)
	}
	if sc.elemStore {
		d.addFieldDirt(elemField)
	}
	for _, call := range sc.calls {
		d.cone(call)
	}
}

// fixpoint alternates dirt closure with reachability retirement until
// both stabilize. Dirt only grows and reach only shrinks, so the loop
// terminates.
func (d *deltaState) fixpoint() {
	for {
		d.changed = false
		d.markDirtyCells()
		d.markPolluted()
		d.drainNodes()
		d.reached = d.computeReach()
		d.purgeUnreached()
		d.applyObjectRules()
		if !d.changed {
			return
		}
	}
}

// markDirtyCells dirties field/static nodes whose name or owner object
// is dirty. Map iteration only marks, so order is immaterial.
func (d *deltaState) markDirtyCells() {
	for k, n := range d.ps.fieldNodes { //determinism:ok — marking fixpoint, order-free
		if d.dirtyNode[d.ps.findID(n.id)] {
			continue
		}
		dirty := d.dirtyObj[k.obj.ID]
		if k.field == nil {
			dirty = dirty || d.dirtyField[elemField]
		} else {
			dirty = dirty || d.dirtyField[k.field.QualifiedName()]
		}
		if dirty {
			d.markNode(n)
		}
	}
	for f, n := range d.ps.staticNode { //determinism:ok — marking fixpoint, order-free
		if d.dirtyStatic[f.QualifiedName()] && !d.dirtyNode[d.ps.findID(n.id)] {
			d.markNode(n)
		}
	}
}

// markPolluted dirties every node whose points-to set contains a dirty
// object: the object may no longer exist or may stand for different
// concrete state.
func (d *deltaState) markPolluted() {
	if d.dirtyObjBits.empty() {
		return
	}
	for _, n := range d.ps.nodes {
		if d.ps.parent[n.id] != n.id || d.dirtyNode[n.id] {
			continue
		}
		if n.pts.intersects(d.dirtyObjBits) {
			d.markNodeID(n.id)
		}
	}
}

// drainNodes closes node dirt under the solver's propagation rules.
func (d *deltaState) drainNodes() {
	for len(d.nodeQ) > 0 {
		id := d.nodeQ[len(d.nodeQ)-1]
		d.nodeQ = d.nodeQ[:len(d.nodeQ)-1]
		n := d.ps.nodes[id]
		for _, succ := range n.succs {
			d.markNode(succ)
		}
		for _, f := range n.filters {
			d.markNode(f.dst)
		}
		for _, lc := range n.loads {
			d.markNode(lc.dst)
		}
		for _, sc := range n.stores {
			if sc.field == nil {
				d.addFieldDirt(elemField)
			} else {
				d.addFieldDirt(sc.field.QualifiedName())
			}
		}
		for _, cc := range n.calls {
			// A dirty receiver may dispatch differently: the whole callee
			// name cone's argument flow and the call result are suspect.
			d.cone(cc.call)
			if dst := cc.call.Dst; dst != nil && isRefType(dst.Typ) {
				if dn, ok := d.ps.varNodes[varKey{dst, cc.caller.Ctx}]; ok {
					d.markNode(dn)
				}
			}
		}
	}
}

// computeReach under-approximates the new world's reachable previous
// contexts: it starts from the entries and from edited call sites whose
// target is certain, and follows a previous context's call edges only
// where the dispatch cannot have changed (static targets, or a receiver
// node that is clean). Everything it cannot prove reached is retired by
// purgeUnreached. The under-approximation is what makes carried objects
// safe: a carried (clean) object's allocating context is approx-reached,
// hence reached in the cold solve, hence the object exists there too.
func (d *deltaState) computeReach() map[*MCtx]bool {
	reached := make(map[*MCtx]bool)
	var queue []*MCtx
	tryReach := func(mc *MCtx) {
		if mc == nil || reached[mc] || d.pm.Method[mc.Method] == nil {
			return
		}
		reached[mc] = true
		queue = append(queue, mc)
	}
	rootQ := func(q string) {
		if om := d.oldByQ[q]; om != nil {
			tryReach(d.ps.mctxs[mctxKey{om, nil}])
		}
	}
	for _, m := range defaultEntries(d.prog, d.cfg) {
		rootQ(m.Sig.QualifiedName())
	}
	// Certain calls inside edited bodies also root the walk: a static
	// call always reaches its target, and a constructor call on a
	// non-container class always runs in the empty context.
	for _, m := range d.prog.Methods {
		if !d.addedNew[m] {
			continue
		}
		for _, call := range d.scan(m).calls {
			switch call.Mode {
			case ir.CallStatic:
				rootQ(call.Callee.QualifiedName())
			case ir.CallCtor:
				if !d.containers[call.Callee.Owner.Name] {
					rootQ(call.Callee.QualifiedName())
				}
			}
		}
	}
	for len(queue) > 0 {
		mc := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, call := range d.scan(mc.Method).calls {
			if call.Mode != ir.CallStatic {
				rn, ok := d.ps.varNodes[varKey{call.Recv, mc.Ctx}]
				if !ok || d.dirtyNode[d.ps.findID(rn.id)] {
					continue // dispatch may differ; callees handled by purge
				}
			}
			for _, callee := range d.prev.callEdges[callSiteKey{call.ID(), mc.ID}] {
				tryReach(callee)
			}
		}
	}
	return reached
}

// purgeUnreached retires contexts the walk could not prove reached:
// everything they contributed to shared state — stores by field name,
// statics, and the argument flow into their callees — is dirtied so the
// delta solve rebuilds it from the contexts that remain. Their
// allocations die through applyObjectRules.
func (d *deltaState) purgeUnreached() {
	for _, mc := range d.prev.mctxs {
		if d.reached[mc] || d.purged[mc] {
			continue
		}
		d.purged[mc] = true
		d.changed = true
		sc := d.scan(mc.Method)
		d.seedScanStores(sc)
		for _, call := range sc.calls {
			for _, callee := range d.prev.callEdges[callSiteKey{call.ID(), mc.ID}] {
				d.markFormals(callee)
				if dst := call.Dst; dst != nil && isRefType(dst.Typ) {
					if dn, ok := d.ps.varNodes[varKey{dst, mc.Ctx}]; ok {
						d.markNode(dn)
					}
				}
			}
		}
	}
}

func (d *deltaState) seedScanStores(sc *bodyScan) {
	for _, q := range sc.storedFields {
		d.addFieldDirt(q)
	}
	for _, q := range sc.storedStatics {
		d.addStaticDirt(q)
	}
	if sc.elemStore {
		d.addFieldDirt(elemField)
	}
}

// applyObjectRules dirties objects whose identity or existence is
// suspect: allocation site in an edited body, dirty heap context, or no
// provably-reached context that would allocate them.
func (d *deltaState) applyObjectRules() {
	for _, o := range d.prev.objects {
		if d.dirtyObj[o.ID] {
			continue
		}
		if o.Ctx != nil && d.dirtyObj[o.Ctx.ID] {
			d.markObj(o)
			continue
		}
		if !d.objAlive(o) {
			d.markObj(o)
		}
	}
}

// objAlive reports whether some approx-reached context of the site's
// method allocates under exactly o's heap context. Contexts deeper than
// the cloning cap truncate to the context-free object, so any deep
// reached context keeps a ctx-free object alive too.
func (d *deltaState) objAlive(o *Object) bool {
	m := d.siteMethod[o.Site.ID()]
	for _, mc := range d.prev.mctxsOf[m] {
		if !d.reached[mc] {
			continue
		}
		if mc.Ctx == o.Ctx {
			return true
		}
		if o.Ctx == nil && mc.Ctx != nil && mc.Ctx.depth+1 > d.ps.maxDepth {
			return true
		}
	}
	return false
}

// inertOld returns the previous contexts that can be carried without
// reprocessing, in canonical (res.mctxs) order: method unchanged,
// provably reached, clean receiver context, no store into a dirty field
// name, and every register node clean.
func (d *deltaState) inertOld() []*MCtx {
	var out []*MCtx
	for _, mc := range d.prev.mctxs {
		if d.pm.Method[mc.Method] == nil || !d.reached[mc] {
			continue
		}
		if mc.Ctx != nil && d.dirtyObj[mc.Ctx.ID] {
			continue
		}
		if d.storesDirty(d.scan(mc.Method)) {
			continue
		}
		clean := true
		for _, reg := range ir.MethodRegs(mc.Method) {
			if n, ok := d.ps.varNodes[varKey{reg, mc.Ctx}]; ok {
				if d.dirtyNode[d.ps.findID(n.id)] {
					clean = false
					break
				}
			}
		}
		if clean {
			out = append(out, mc)
		}
	}
	return out
}

func (d *deltaState) storesDirty(sc *bodyScan) bool {
	for _, q := range sc.storedFields {
		if d.dirtyField[q] {
			return true
		}
	}
	for _, q := range sc.storedStatics {
		if d.dirtyStatic[q] {
			return true
		}
	}
	return sc.elemStore && d.dirtyField[elemField]
}

// convType rebuilds an old-world type in the new world's class table.
func convType(t types.Type, classes map[string]*types.ClassInfo) (types.Type, error) {
	switch t := t.(type) {
	case *types.Class:
		ci := classes[t.Info.Name]
		if ci == nil {
			return nil, fmt.Errorf("pointsto: delta: class %s vanished", t.Info.Name)
		}
		return types.ClassType(ci), nil
	case *types.Array:
		e, err := convType(t.Elem, classes)
		if err != nil {
			return nil, err
		}
		return &types.Array{Elem: e}, nil
	default:
		return t, nil // value types are shared singletons
	}
}

// carryCheck records a carried node's expected final cardinality: an
// inert node must end the delta solve with exactly the points-to set it
// was carried with, or the dirtiness analysis missed something and the
// result cannot be trusted.
type carryCheck struct {
	n    *node
	want int
}

func (d *deltaState) carryAndSolve(stats *DeltaStats) (*Result, error) {
	stats.PrevCtxs = len(d.prev.mctxs)
	stats.PrevObjects = len(d.prev.objects)
	stats.PrevNodes = len(d.ps.nodes)
	for _, dirty := range d.dirtyNode {
		if dirty {
			stats.DirtyNodes++
		}
	}

	s := newSolver(d.prog, d.cfg)
	s.res.entries = defaultEntries(d.prog, d.cfg)
	newClasses := d.prog.Info.Classes
	fieldBy := make(map[string]*types.FieldInfo)
	for _, ci := range newClasses { //determinism:ok map rebuild, per-key independent
		for _, f := range ci.Fields {
			fieldBy[f.QualifiedName()] = f
		}
	}

	// Carried objects, in previous canonical order (heap contexts are
	// themselves clean objects and are created first, recursively).
	objMap := make([]*Object, len(d.prev.objects))
	var carryObj func(po *Object) error
	carryObj = func(po *Object) error {
		if objMap[po.ID] != nil {
			return nil
		}
		var ctx *Object
		if po.Ctx != nil {
			if d.dirtyObj[po.Ctx.ID] {
				return fmt.Errorf("pointsto: delta: clean object o%d has dirty context", po.ID)
			}
			if err := carryObj(po.Ctx); err != nil {
				return err
			}
			ctx = objMap[po.Ctx.ID]
		}
		site := d.pm.Instr[po.Site.ID()]
		if site == nil {
			return fmt.Errorf("pointsto: delta: clean object o%d allocated in an edited unit", po.ID)
		}
		var class *types.ClassInfo
		if po.Class != nil {
			class = newClasses[po.Class.Name]
			if class == nil {
				return fmt.Errorf("pointsto: delta: class %s vanished", po.Class.Name)
			}
		}
		var elem types.Type
		if po.Elem != nil {
			var err error
			if elem, err = convType(po.Elem, newClasses); err != nil {
				return err
			}
		}
		o := &Object{ID: len(s.res.objects), Site: site, Ctx: ctx, Class: class, Elem: elem, depth: po.depth}
		s.objects[objKey{site, ctx}] = o
		s.res.objects = append(s.res.objects, o)
		objMap[po.ID] = o
		return nil
	}
	for _, po := range d.prev.objects {
		if !d.dirtyObj[po.ID] {
			if err := carryObj(po); err != nil {
				return nil, err
			}
		}
	}
	stats.CarriedObjects = len(s.res.objects)

	remap := func(b bitset) (bitset, error) {
		var out bitset
		var bad error
		b.forEach(func(id int) {
			if objMap[id] == nil {
				bad = fmt.Errorf("pointsto: delta: clean node holds dirty object o%d", id)
				return
			}
			out.add(objMap[id].ID)
		})
		return out, bad
	}

	var checks []carryCheck
	carryNode := func(b bitset) (*node, error) {
		pts, err := remap(b)
		if err != nil {
			return nil, err
		}
		n := s.newNode()
		n.pts = pts
		checks = append(checks, carryCheck{n, pts.count()})
		return n, nil
	}

	// Carried contexts and their register nodes, in canonical order.
	inert := d.inertOld()
	s.pending = make(map[*MCtx]bool, len(inert))
	stats.Inert = make(map[*MCtx]bool, len(inert))
	for _, mc := range inert {
		newM := d.pm.Method[mc.Method]
		var ctx *Object
		if mc.Ctx != nil {
			ctx = objMap[mc.Ctx.ID]
		}
		nmc, fresh := s.mctx(newM, ctx)
		if !fresh {
			return nil, fmt.Errorf("pointsto: delta: carried context %s created twice", mc)
		}
		s.pending[nmc] = true
		stats.Inert[nmc] = true
		for _, reg := range ir.MethodRegs(mc.Method) {
			pn, ok := d.ps.varNodes[varKey{reg, mc.Ctx}]
			if !ok {
				continue
			}
			nn, err := carryNode(d.ps.find(pn).pts)
			if err != nil {
				return nil, err
			}
			newReg := d.pm.Reg[reg]
			if newReg == nil {
				return nil, fmt.Errorf("pointsto: delta: unmapped register in %s", mc.Method.Name())
			}
			s.varNodes[varKey{newReg, ctx}] = nn
			s.res.regNodes[newReg] = append(s.res.regNodes[newReg], nn)
		}
	}
	stats.CarriedCtxs = len(inert)

	// Carried field cells: clean object × clean field name, enumerated
	// deterministically (previous object order, then field name).
	type fieldCand struct {
		key   objFieldKey
		qname string
	}
	var cands []fieldCand
	for k, n := range d.ps.fieldNodes { //determinism:ok — sorted below
		if d.dirtyObj[k.obj.ID] || d.dirtyNode[d.ps.findID(n.id)] {
			continue
		}
		q := elemField
		if k.field != nil {
			q = k.field.QualifiedName()
		}
		if d.dirtyField[q] {
			continue
		}
		cands = append(cands, fieldCand{k, q})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].key.obj.ID != cands[j].key.obj.ID {
			return cands[i].key.obj.ID < cands[j].key.obj.ID
		}
		return cands[i].qname < cands[j].qname
	})
	for _, c := range cands {
		var nf *types.FieldInfo
		if c.key.field != nil {
			if nf = fieldBy[c.qname]; nf == nil {
				return nil, fmt.Errorf("pointsto: delta: field %s vanished", c.qname)
			}
		}
		nn, err := carryNode(d.ps.find(d.ps.fieldNodes[c.key]).pts)
		if err != nil {
			return nil, err
		}
		s.fieldNodes[objFieldKey{objMap[c.key.obj.ID], nf}] = nn
	}

	// Carried statics, by field name.
	var statQ []string
	statOld := make(map[string]*node, len(d.ps.staticNode))
	for f, n := range d.ps.staticNode { //determinism:ok — sorted below
		q := f.QualifiedName()
		if d.dirtyStatic[q] {
			continue
		}
		statQ = append(statQ, q)
		statOld[q] = n
	}
	sort.Strings(statQ)
	for _, q := range statQ {
		nf := fieldBy[q]
		if nf == nil {
			return nil, fmt.Errorf("pointsto: delta: static field %s vanished", q)
		}
		nn, err := carryNode(d.ps.find(statOld[q]).pts)
		if err != nil {
			return nil, err
		}
		s.staticNode[nf] = nn
	}

	// Solve: entries re-reach the graph; carried contexts replay only
	// their call sites, everything else processes normally from the
	// carried state.
	for _, m := range s.res.entries {
		s.reach(m, nil)
	}
	s.solve()
	if s.stop != nil {
		return nil, fmt.Errorf("pointsto: delta: unexpected stop: %v", s.stop)
	}
	if len(s.pending) > 0 {
		return nil, fmt.Errorf("pointsto: delta: %d carried contexts never re-reached", len(s.pending))
	}
	for _, chk := range checks {
		if s.find(chk.n).pts.count() != chk.want {
			return nil, fmt.Errorf("pointsto: delta: carried node points-to set changed during solve")
		}
	}
	return s.finish(), nil
}
