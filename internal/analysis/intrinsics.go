package analysis

// Effect intrinsics: the places where the engine overrides (or
// substitutes for) body analysis.
//
// Stdlib functions have no loadable bodies here, so the tables below
// name every stdlib source of nondeterminism or I/O the project code
// can plausibly reach; stdlib calls without an entry are assumed
// effect-free (pure computation — strings, sort, math, encoding).
//
// Module-internal intrinsics encode reviewed API contracts that body
// analysis cannot see:
//
//   - the tm.Tx / *tm.Ctx / *htm.Txn / *stm.Txn surfaces are the
//     sanctioned way for an atomic body to touch simulated state, so
//     their receiver-state mutation is not an effect;
//   - mem.ShardSink and the (*sim.Proc).Defer* methods are the
//     sanctioned mid-epoch delta channel (buffered, replayed at the
//     boundary); the closure-taking Exclusive runs its argument at the
//     boundary, so closure effects must not fold into the mid-epoch
//     caller;
//   - the classic Hierarchy/Memory entry points and the flight recorder
//     mutate shared or single-threaded state and are boundary-only
//     under the sharded engine (EffBoundary);
//   - (*mem.cache).lookup/insert have LRU and memo side effects on the
//     shared L3, unlike peekLine/present.

import (
	"go/types"
	"sort"
	"strings"
)

type intrinsicEffect struct {
	bits     Effect
	nonIdem  bool
	deferred bool // closure arguments run at the epoch boundary
	desc     string
}

// methodEffects matches methods by package suffix, receiver type name,
// and method name ("" = any method). First match wins.
var methodEffects = []struct {
	pkg, typ, name string
	eff            intrinsicEffect
}{
	// Sanctioned transactional API surfaces.
	{"internal/tm", "Tx", "", intrinsicEffect{desc: "is the sanctioned Txn API"}},
	{"internal/tm", "Ctx", "", intrinsicEffect{desc: "is the sanctioned Txn API"}},
	{"internal/htm", "Txn", "", intrinsicEffect{desc: "is the sanctioned HTM API"}},
	{"internal/stm", "Txn", "", intrinsicEffect{desc: "is the sanctioned STM API"}},
	// The ds data structures access simulated memory through these
	// adapter interfaces; they are the same sanctioned channel as tm.Tx
	// (widening them to concrete backends would drag the simulator's
	// own park/record machinery into every transaction body).
	{"internal/ds", "Mem", "", intrinsicEffect{desc: "is the sanctioned simulated-memory API"}},
	{"internal/ds", "Allocator", "", intrinsicEffect{desc: "is the sanctioned simulated-memory API"}},
	{"internal/ds", "CASMem", "", intrinsicEffect{desc: "is the sanctioned simulated-memory API"}},
	// Simulated work accounting only moves the proc's own simulated
	// clock; re-accrual on an aborted attempt is the point (re-executed
	// work costs cycles each attempt, as on hardware).
	{"internal/sim", "Proc", "Work", intrinsicEffect{desc: "accrues simulated work cycles"}},
	{"internal/sim", "Proc", "AddWork", intrinsicEffect{desc: "accrues simulated work cycles"}},
	// Sanctioned mid-epoch delta channel.
	{"internal/mem", "ShardSink", "", intrinsicEffect{desc: "is the sanctioned ownership-delta channel"}},
	{"internal/sim", "Proc", "Exclusive", intrinsicEffect{deferred: true, desc: "runs at the epoch boundary"}},
	{"internal/sim", "Proc", "DeferEvent", intrinsicEffect{desc: "is the sanctioned deferred-event channel"}},
	{"internal/sim", "Proc", "DeferCounter", intrinsicEffect{desc: "is the sanctioned deferred-event channel"}},
	{"internal/sim", "Proc", "DeferMemEvent", intrinsicEffect{desc: "is the sanctioned deferred-event channel"}},
	{"internal/sim", "Proc", "DeferMemDelta", intrinsicEffect{desc: "is the sanctioned deferred-event channel"}},
	// Boundary-only shared-state mutators.
	{"internal/mem", "Memory", "Read", intrinsicEffect{bits: EffBoundary, desc: "mutates shared page memos"}},
	{"internal/mem", "Memory", "Write", intrinsicEffect{bits: EffBoundary, desc: "writes the shared backing store"}},
	{"internal/mem", "Hierarchy", "Load", intrinsicEffect{bits: EffBoundary, desc: "drives the shared coherence state machine"}},
	{"internal/mem", "Hierarchy", "Store", intrinsicEffect{bits: EffBoundary, desc: "drives the shared coherence state machine"}},
	{"internal/mem", "Hierarchy", "StoreTiming", intrinsicEffect{bits: EffBoundary, desc: "drives the shared coherence state machine"}},
	{"internal/mem", "Hierarchy", "Touch", intrinsicEffect{bits: EffBoundary, desc: "drives the shared coherence state machine"}},
	{"internal/mem", "Hierarchy", "Drop", intrinsicEffect{bits: EffBoundary, desc: "mutates shared cache directories"}},
	{"internal/mem", "Hierarchy", "Peek", intrinsicEffect{bits: EffBoundary, desc: "mutates shared page memos"}},
	{"internal/mem", "Hierarchy", "Poke", intrinsicEffect{bits: EffBoundary, desc: "writes the shared backing store"}},
	{"internal/mem", "Hierarchy", "ApplyShardDelta", intrinsicEffect{bits: EffBoundary, desc: "replays ownership deltas (boundary only)"}},
	{"internal/mem", "Hierarchy", "InitShard", intrinsicEffect{bits: EffBoundary, desc: "reconfigures the sharded engine"}},
	{"internal/mem", "Hierarchy", "ShardEpochReset", intrinsicEffect{bits: EffBoundary, desc: "resets epoch ownership state"}},
	{"internal/mem", "Hierarchy", "ResetRegion", intrinsicEffect{bits: EffBoundary, desc: "resets shared region state"}},
	{"internal/mem", "cache", "lookup", intrinsicEffect{bits: EffBoundary, desc: "has LRU/memo side effects on the shared L3"}},
	{"internal/mem", "cache", "insert", intrinsicEffect{bits: EffBoundary, desc: "has LRU/memo side effects on the shared L3"}},
	{"internal/obs", "Recorder", "", intrinsicEffect{bits: EffBoundary, desc: "the flight recorder is single-threaded"}},
	// Host-effect stdlib types.
	{"os", "File", "", intrinsicEffect{bits: EffIO, desc: "performs file I/O"}},
	{"sync", "", "", intrinsicEffect{bits: EffChan, desc: "is a host synchronization primitive"}},
}

// intrinsicFor looks up the intrinsic entry for a function object.
func intrinsicFor(f *types.Func) (intrinsicEffect, bool) {
	pkg := f.Pkg()
	if pkg == nil {
		return intrinsicEffect{}, false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil && n.Obj().Pkg() != nil {
			return methodIntrinsic(n.Obj().Pkg(), n.Obj().Name(), f.Name())
		}
		return intrinsicEffect{}, false
	}
	return funcIntrinsic(pkg.Path(), f.Name())
}

func methodIntrinsic(pkg *types.Package, typ, name string) (intrinsicEffect, bool) {
	if pkg.Path() == "sync/atomic" {
		return atomicIntrinsic(name), true
	}
	for _, m := range methodEffects {
		if !pkgPathIs(pkg, m.pkg) {
			continue
		}
		if m.typ != "" && m.typ != typ {
			continue
		}
		if m.name != "" && m.name != name {
			continue
		}
		return m.eff, true
	}
	return intrinsicEffect{}, false
}

func atomicIntrinsic(name string) intrinsicEffect {
	if strings.HasPrefix(name, "Load") {
		return intrinsicEffect{desc: "is an atomic load"}
	}
	return intrinsicEffect{bits: EffWriteAlias, nonIdem: true, desc: "is an atomic RMW on host memory"}
}

// ioPackages: any function in these packages performs I/O.
var ioPackages = map[string]bool{
	"net": true, "net/http": true, "syscall": true, "os/exec": true,
	"log": true, "io/ioutil": true,
}

var osEnvFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Getpid": true,
	"Getppid": true, "Hostname": true, "Getwd": true, "UserHomeDir": true,
	"UserConfigDir": true, "UserCacheDir": true, "TempDir": true,
}

var osIOFuncs = map[string]bool{
	"Create": true, "Open": true, "OpenFile": true, "Remove": true,
	"RemoveAll": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"CreateTemp": true, "ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Rename": true, "Stat": true, "Lstat": true, "Chdir": true,
	"Chmod": true, "Chtimes": true, "Truncate": true, "Link": true,
	"Symlink": true, "Readlink": true, "Pipe": true, "Exit": true,
}

var fmtIOFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Scan": true, "Scanf": true, "Scanln": true,
	"Fscan": true, "Fscanf": true, "Fscanln": true,
}

var runtimeEnvFuncs = map[string]bool{
	"NumCPU": true, "NumGoroutine": true, "GOMAXPROCS": true,
}

func funcIntrinsic(path, name string) (intrinsicEffect, bool) {
	if ioPackages[path] {
		return intrinsicEffect{bits: EffIO, desc: "performs I/O"}, true
	}
	switch path {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return intrinsicEffect{bits: EffTime, desc: "reads the wall clock"}, true
		case "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			return intrinsicEffect{bits: EffTime, desc: "depends on host timing"}, true
		}
	case "math/rand", "math/rand/v2":
		if strings.HasPrefix(name, "New") {
			return intrinsicEffect{}, false // constructors do not draw
		}
		return intrinsicEffect{bits: EffRand, desc: "draws from the global math/rand stream"}, true
	case "crypto/rand":
		return intrinsicEffect{bits: EffRand, desc: "draws OS entropy"}, true
	case "os":
		if osEnvFuncs[name] {
			return intrinsicEffect{bits: EffEnv, desc: "reads the process environment"}, true
		}
		if osIOFuncs[name] {
			return intrinsicEffect{bits: EffIO, desc: "performs file I/O"}, true
		}
	case "fmt":
		if fmtIOFuncs[name] {
			return intrinsicEffect{bits: EffIO, desc: "writes to a stream"}, true
		}
	case "runtime":
		if runtimeEnvFuncs[name] {
			return intrinsicEffect{bits: EffEnv, desc: "reads host configuration"}, true
		}
	case "sync/atomic":
		return atomicIntrinsic(name), true
	}
	return intrinsicEffect{}, false
}

// implementors widens an interface to the concrete module-internal
// types implementing it across every loaded package, returning the
// nodes of their corresponding methods. Results are cached per
// (interface, method).
func (e *effEngine) implementors(iface *types.Named, method string) []*fnode {
	obj := iface.Obj()
	key := obj.Pkg().Path() + "." + obj.Name() + "." + method
	if impls, ok := e.impls[key]; ok {
		return impls
	}
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		e.impls[key] = nil
		return nil
	}
	// Candidate pool: every module-internal package seen by the loader,
	// in deterministic path order.
	pkgs := make(map[string]*types.Package)
	for u := range e.indexed {
		pkgs[u.Pkg.Path()] = u.Pkg
	}
	for path, p := range e.l.deps {
		if p == nil {
			continue
		}
		if _, dup := pkgs[path]; dup {
			continue
		}
		if path == e.l.ModulePath || strings.HasPrefix(path, e.l.ModulePath+"/") {
			pkgs[path] = p
		}
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	var out []*fnode
	seen := make(map[*fnode]bool)
	for _, path := range paths {
		scope := pkgs[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			if !types.Implements(named, it) && !types.Implements(types.NewPointer(named), it) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				sel := ms.At(i)
				if sel.Obj().Name() != method {
					continue
				}
				f, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				if n := e.nodeForFunc(f); n != nil && !n.onCommit && !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	e.impls[key] = out
	return out
}
