package main

import (
	"syscall"

	"rtmlab/internal/stm"
	"rtmlab/internal/tm"
)

// endToEndMetrics reduces a run's untraced passes to the end-to-end
// metrics. The host's speed switches between levels that each last tens
// of seconds, so the pass-time metrics are means over the run, which
// weigh every level by its share of the run, rather than medians, which
// report whichever level held for most passes. point_s_p50 is the mean
// of each pass's median point: pooled, the median of heterogeneous
// points would be the extreme of one cluster of samples and swing with
// it. point_s_tail pools every point of every pass. setup_s and
// alloc_mb are medians over passes.
func endToEndMetrics(passes []pass) (map[string]float64, tail) {
	var wall, setup, alloc, p50, pointS []float64
	var cycles uint64
	for _, ps := range passes {
		wall = append(wall, ps.wallS)
		cycles += ps.counts.cycles
		setup = append(setup, ps.setupS)
		alloc = append(alloc, float64(ps.allocB)/1e6)
		var inPass []float64
		for _, r := range ps.points {
			inPass = append(inPass, r.hostS)
		}
		p50 = append(p50, median(inPass))
		pointS = append(pointS, inPass...)
	}
	t := tailOf(pointS)
	return map[string]float64{
		"wall_s":            mean(wall),
		"sim_mcycles_per_s": float64(cycles) / 1e6 / sum(wall),
		"point_s_p50":       mean(p50),
		"point_s_tail":      t.value,
		"setup_s":           median(setup),
		"max_rss_mb":        maxRSSMB(),
		"alloc_mb":          median(alloc),
	}, t
}

// maxRSSMB returns the process's peak resident set in MB (10^6 bytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// ledger prices each layer's counts of one pass with its probe cost; the
// residual is the region host time no probe accounts for.
type ledger struct {
	sim, mem, htm, stm     float64 // host seconds
	residual, residualFrac float64
}

// newLedger builds the ledger of one traced pass whose simulated regions
// took regionS host seconds:
//
//	sim = switches x handoff
//	mem = L1 hits x load_l1 + L2 hits x load_l2 + L3 hits x load_l3 + DRAM accesses x load_dram
//	htm = RTM starts x (txn - 100 x load_l1)
//	stm = STM begins x (tinystm txn - 100 x load_l1)
//
// A probe transaction's 100 accesses are L1 hits already priced under
// mem, so they are taken out of the htm and stm prices.
func newLedger(c counts, regionS float64, pc probeCosts) ledger {
	m := c.mem
	txnMem := txnAccesses * pc.loadL1
	l := ledger{
		sim: float64(c.recSwitches) * pc.handoff,
		mem: float64(m.L1Hits)*pc.loadL1 + float64(m.L2Hits)*pc.loadL2 +
			float64(m.L3Hits)*pc.loadL3 + float64(m.MemAccesses)*pc.loadMem,
		htm: float64(c.htmStarts) * max(pc.htmTxn-txnMem, 0),
		stm: float64(c.stmBegins) * max(pc.stmTxn[stm.TinySTMName]-txnMem, 0),
	}
	l.sim, l.mem, l.htm, l.stm = l.sim/1e9, l.mem/1e9, l.htm/1e9, l.stm/1e9
	l.residual = regionS - (l.sim + l.mem + l.htm + l.stm)
	if regionS > 0 {
		l.residualFrac = l.residual / regionS
	}
	return l
}

// perLayerMetrics builds the traced run's metrics from one traced pass's
// counts, the traced passes' median region host time, the probes and
// the tracing overhead.
func perLayerMetrics(c counts, regionS float64, pc probeCosts, overhead float64) map[string]float64 {
	m := c.mem
	l := newLedger(c, regionS, pc)
	f := func(n uint64) float64 { return float64(n) }
	return map[string]float64{
		"sim.cycles":        f(c.cycles),
		"sim.instr":         f(c.instr),
		"sim.regions":       f(c.recRegions),
		"sim.switches":      f(c.recSwitches),
		"sim.region_host_s": regionS,
		"sim.handoff_ns":    pc.handoff,
		"sim.epochs":        f(c.recEpochs),
		"sim.boundary_ops":  f(c.recBoundaryOps),
		"sim.parks":         f(c.recParks),
		"sim.local_ops":     f(c.recLocalOps),

		"mem.l1_accesses":   f(m.L1Accesses),
		"mem.l1_hit_ratio":  ratio(m.L1Hits, m.L1Accesses),
		"mem.l2_hit_ratio":  ratio(m.L2Hits, m.L2Accesses),
		"mem.l3_hit_ratio":  ratio(m.L3Hits, m.L3Accesses),
		"mem.dram_accesses": f(m.MemAccesses),
		"mem.invalidations": f(m.Invalidations),
		"mem.l3_evictions":  f(m.L3Evictions),
		"mem.writebacks":    f(m.Writebacks),
		"mem.load_l1_ns":    pc.loadL1,
		"mem.load_l2_ns":    pc.loadL2,
		"mem.load_l3_ns":    pc.loadL3,
		"mem.load_dram_ns":  pc.loadMem,
		"mem.store_l1_ns":   pc.storeL1,

		"lineset.table_get_ns":     pc.tableGet,
		"lineset.set_add_clear_ns": pc.setAddClear,

		"htm.starts":                f(c.htmStarts),
		"htm.commits":               f(c.htmCommits),
		"htm.commit_ratio":          ratio(c.htmCommits, c.htmStarts),
		"htm.aborts.conflict":       f(c.abortConflict),
		"htm.aborts.read_capacity":  f(c.abortReadCap),
		"htm.aborts.write_capacity": f(c.abortWriteCap),
		"htm.aborts.misc3":          f(c.abortMisc3),
		"htm.aborts.misc5":          f(c.abortMisc5),
		"htm.txn_ns":                pc.htmTxn,

		"stm.begins":         f(c.stmBegins),
		"stm.commits":        f(c.stmCommits),
		"stm.commit_ratio":   ratio(c.stmCommits, c.stmBegins),
		"stm.aborts":         f(c.stmAborts),
		"stm.txn_ns.tinystm": pc.stmTxn[stm.TinySTMName],
		"stm.txn_ns.tl2":     pc.stmTxn[stm.TL2Name],
		"stm.txn_ns.norec":   pc.stmTxn[stm.NOrecName],

		"tm.atomic":            f(c.tmAtomic),
		"tm.fallbacks":         f(c.tmFallbacks),
		"tm.lock_aborts":       f(c.tmLockAborts),
		"tm.atomic_ns.seq":     pc.atomic[tm.Seq],
		"tm.atomic_ns.rtm":     pc.atomic[tm.HTM],
		"tm.atomic_ns.tinystm": pc.atomic[tm.STM],

		"ledger.sim_s":         l.sim,
		"ledger.mem_s":         l.mem,
		"ledger.htm_s":         l.htm,
		"ledger.stm_s":         l.stm,
		"ledger.residual_s":    l.residual,
		"ledger.residual_frac": l.residualFrac,

		"trace.overhead_frac": overhead,
	}
}
