package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"divscrape/internal/trace"
)

// printExplain renders one client's provenance timeline as text: its
// captured decision records interleaved chronologically with the
// provenance events (quarantines, restores) that frame them.
func printExplain(w io.Writer, tl trace.Timeline) {
	fmt.Fprintf(w, "provenance for %s: %d records, %d events\n",
		tl.Client, len(tl.Records), len(tl.Events))
	i, j := 0, 0
	for i < len(tl.Records) || j < len(tl.Events) {
		if i >= len(tl.Records) ||
			(j < len(tl.Events) && !tl.Events[j].Time.After(tl.Records[i].Time)) {
			ev := tl.Events[j]
			j++
			fmt.Fprintf(w, "  %s  event %s shard=%d", ev.Time.Format(time.RFC3339), ev.Kind, ev.Shard)
			if ev.Detector != "" {
				fmt.Fprintf(w, " detector=%s", ev.Detector)
			}
			if ev.Detail != "" {
				fmt.Fprintf(w, " (%s)", ev.Detail)
			}
			fmt.Fprintln(w)
			continue
		}
		r := tl.Records[i]
		i++
		fmt.Fprintf(w, "  %s  seq=%d [%s] alerted=%t confirmed=%t",
			r.Time.Format(time.RFC3339), r.Seq, r.Sampled, r.Alerted, r.Confirmed)
		if r.Action != "" {
			fmt.Fprintf(w, " action=%s rung %s->%s", r.Action, r.RungBefore, r.RungAfter)
		}
		fmt.Fprintf(w, " suspicion=%.3f\n", r.Suspicion)
		for _, dr := range r.Detectors {
			fmt.Fprintf(w, "      %s:", dr.Detector)
			if dr.Skipped {
				fmt.Fprint(w, " skipped (quarantined)")
			}
			fmt.Fprintf(w, " alert=%t score=%.3f", dr.Alert, dr.Score)
			if len(dr.Reasons) > 0 {
				fmt.Fprintf(w, " reasons=%s", strings.Join(dr.Reasons, ","))
			}
			fmt.Fprintln(w)
			if len(dr.Features) > 0 {
				fmt.Fprint(w, "        features:")
				for _, f := range dr.Features {
					fmt.Fprintf(w, " %s=%.4g", f.Name, f.Value)
				}
				fmt.Fprintln(w)
			}
		}
	}
}
