package analysis

// shardfreeze: code that runs mid-epoch inside the sharded engine —
// functions annotated //rtm:midepoch — must not mutate frozen shared
// state. Mid-epoch, the backing store, the L3 directory, and peer
// private caches are frozen; the only legal mutation channels are the
// core's own private state and the ownership-delta API (mem.ShardSink,
// replayed at the boundary by Hierarchy.ApplyShardDelta). The pass
// uses the interprocedural effect summaries, so a frozen-state write
// buried in a helper is reported at the annotated root with its call
// chain.
//
// Receiver/parameter writes are deliberately legal: a mid-epoch
// function mutating its own core's private cache slice through its
// receiver is the design. What is banned is the boundary-only API
// surface (EffBoundary: classic Hierarchy entry points, Memory
// read/write memoization, the L3's LRU-effectful lookup/insert, the
// single-threaded recorder), package-level writes, I/O, host
// concurrency, and calls the engine cannot resolve.

// midepochDirective marks a function as running mid-epoch under the
// sharded engine.
const midepochDirective = "//rtm:midepoch"

// shardBannedEffects are the effects a mid-epoch function may not
// reach.
const shardBannedEffects = EffBoundary | EffWriteGlobal | EffIO | EffChan | EffGo | EffUnknown

// runShardFreeze checks every //rtm:midepoch function in the unit.
func runShardFreeze(u *Unit) []Diagnostic {
	const pass = "shardfreeze"
	var diags []Diagnostic
	for _, fn := range funcDecls(u) {
		if !hasDirective(fn.decl.Doc, midepochDirective) {
			continue
		}
		sum := u.SummaryForDecl(fn.decl)
		if sum == nil {
			continue
		}
		name := fn.decl.Name.Name
		for _, el := range effectLabels {
			if el.Bit&shardBannedEffects == 0 || sum.Bits&el.Bit == 0 {
				continue
			}
			c := sum.Cause(el.Bit)
			pos := fn.decl.Pos()
			if c != nil {
				pos = c.Pos
			}
			detail := ""
			if c != nil {
				detail = ": " + causeText(u.Fset, c)
			}
			var kind string
			switch el.Bit {
			case EffBoundary:
				kind = "boundary-call"
			case EffWriteGlobal:
				kind = "frozen-write"
			case EffUnknown:
				kind = "unresolved-call"
			default:
				kind = "host-effect"
			}
			diags = append(diags, u.diagKind(pass, kind, pos,
				"mid-epoch function %s %s while shared state is frozen%s", name, el.Label, detail))
		}
	}
	return diags
}
