// Abort-timeline: attach the flight recorder to a labyrinth run under
// RTM and print the transaction-event timeline, making the paper's §IV
// narrative directly visible — every routing transaction's whole-grid
// copy blows the L1-bounded write set, the hardware retries burn work,
// and after MAX_RETRIES the thread serialises through the fallback lock,
// aborting everyone else ("lock aborts").
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"

	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// threadEvent is one recorder event with the thread track it came from.
type threadEvent struct {
	tid int
	ev  obs.Event
}

func main() {
	events := flag.Int("n", 60, "timeline events to print")
	threads := flag.Int("threads", 2, "simulated threads")
	flag.Parse()

	rec := obs.NewRecorder("abort-timeline", 0)
	res, err := stamp.Run(stamp.NewLabyrinth(stamp.Full), tm.HTM, *threads, 42,
		func(sys *tm.System) { sys.SetRecorder(rec) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "validation failed:", err)
		os.Exit(1)
	}

	fmt.Printf("labyrinth under RTM, %d threads: %d starts, %d aborts (%.0f%%), %d fallbacks\n",
		*threads, res.Starts, res.Aborts, 100*res.AbortRate, res.Fallbacks)
	fmt.Printf("abort mix: %d write-capacity, %d conflict/read-capacity, %d lock, %d misc3, %d misc5\n\n",
		res.WriteCapacity, res.ConflictOrReadCap, res.Lock, res.Misc3, res.Misc5)

	// Merge the per-thread tracks into one timeline ordered by (cycle,
	// thread); the stable sort keeps each thread's emission order.
	var all []threadEvent
	for tid := 0; tid < rec.Threads(); tid++ {
		for _, e := range rec.ThreadEvents(tid) {
			all = append(all, threadEvent{tid, e})
		}
	}
	slices.SortStableFunc(all, func(a, b threadEvent) int {
		return cmp.Or(cmp.Compare(a.ev.Cycle, b.ev.Cycle), cmp.Compare(a.tid, b.tid))
	})
	if len(all) > *events {
		all = all[:*events]
	}
	fmt.Printf("first %d events:\n", len(all))
	for _, te := range all {
		e := te.ev
		site := rec.SiteName(e.Site)
		if site == "" {
			site = "-"
		}
		detail := ""
		switch {
		case e.Kind == obs.KTxAbort:
			detail = e.Cause.String()
		case e.Kind == obs.KTxCommit && e.Aux > 0:
			detail = fmt.Sprintf("retries=%d", e.Aux)
		}
		if detail != "" {
			fmt.Printf("%12d t%d %-8s %-12s %s\n", e.Cycle, te.tid, e.Kind, site, detail)
		} else {
			fmt.Printf("%12d t%d %-8s %s\n", e.Cycle, te.tid, e.Kind, site)
		}
	}
	fmt.Println("\nNote the begin -> write-capacity abort loops on the 'route' site followed")
	fmt.Println("by a fallback: that is Fig. 12's labyrinth column and why it cannot scale on RTM.")
}
