// Botnet campaign study: configure a traffic mix dominated by a
// distributed low-and-slow scraping botnet (the hardest archetype) and
// watch how each detector's hourly catch rate evolves. Demonstrates
// custom traffic profiles through the public API and shows *why* the
// detectors disagree: the commercial-style tool convicts sessions with
// stale fingerprints instantly, while the behavioural tool never collects
// enough per-session evidence on this archetype.
package main

import (
	"fmt"
	"log"
	"time"

	"divscrape"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Start from the calibrated mix, then strip it down to background
	// human traffic plus a large stealth botnet.
	profile := divscrape.CalibratedProfile(1)
	profile.NaiveScrapers = 0
	profile.AggressiveScrapers = 0
	profile.InfraScrapers = 0
	profile.HeadlessScrapers = 0
	profile.StealthBots = 220
	profile.StealthSessionGap = 30 * time.Minute

	const hours = 12
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{
		Seed:     99,
		Duration: hours * time.Hour,
		Profile:  profile,
	})
	if err != nil {
		return err
	}
	pair, err := divscrape.NewDetectorSet()
	if err != nil {
		return err
	}
	verdicts := make([]divscrape.Verdict, pair.Len())

	type hourly struct {
		botTotal, botCommercial, botBehavioural uint64
		humanTotal, falseAlarms                 uint64
	}
	buckets := make([]hourly, hours)
	var start time.Time

	err = gen.Run(func(ev divscrape.Event) error {
		if start.IsZero() {
			start = ev.Entry.Time.Truncate(time.Hour)
		}
		h := int(ev.Entry.Time.Sub(start) / time.Hour)
		if h < 0 || h >= hours {
			return nil
		}
		if err := pair.InspectInto(ev.Entry, verdicts); err != nil {
			return err
		}
		vc, vb := verdicts[0], verdicts[1]
		b := &buckets[h]
		if ev.Label.Malicious() {
			b.botTotal++
			if vc.Alert {
				b.botCommercial++
			}
			if vb.Alert {
				b.botBehavioural++
			}
		} else {
			b.humanTotal++
			if vc.Alert || vb.Alert {
				b.falseAlarms++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Println("stealth botnet campaign: hourly detection rates")
	fmt.Println("hour   bot reqs   commercial   behavioural   benign reqs   false alarms")
	for h, b := range buckets {
		fmt.Printf("%4d   %8d   %9.1f%%   %10.1f%%   %11d   %12d\n",
			h, b.botTotal,
			rate(b.botCommercial, b.botTotal),
			rate(b.botBehavioural, b.botTotal),
			b.humanTotal, b.falseAlarms)
	}
	fmt.Println("\nthe commercial-style tool owns this archetype: stale canned")
	fmt.Println("fingerprints convict sessions on sight, while per-session volume")
	fmt.Println("stays below the behavioural warm-up — the paper's 'Distil only' bucket.")
	return nil
}

func rate(n, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
