// Package registry is the one place that knows which detectors exist: it
// names every detector a host can run and builds their factories. The
// facade, the CLI (through the facade) and the HTTP guard all resolve
// detector names here. It cannot live in internal/detector, which every
// detector package imports.
package registry

import (
	"fmt"
	"maps"
	"slices"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/sentinel"
	"divscrape/internal/trajectory"
)

// Config tunes the detectors a factory builds. Zero values select each
// detector's calibrated defaults.
type Config struct {
	Sentinel   sentinel.Config
	Arcane     arcane.Config
	Trajectory trajectory.Config
}

// entry is one registered detector: the role it plays among the paper's
// sides, and how to build it under a Config.
type entry struct {
	role  string
	build func(Config) (detector.Detector, error)
}

// entries holds every registered detector by name.
var entries = map[string]entry{
	"arcane":     {"behavioural", func(c Config) (detector.Detector, error) { return arcane.New(c.Arcane) }},
	"sentinel":   {"commercial", func(c Config) (detector.Detector, error) { return sentinel.New(c.Sentinel) }},
	"trajectory": {"trajectory", func(c Config) (detector.Detector, error) { return trajectory.New(c.Trajectory) }},
}

// Default is the paper's pair in report order: the commercial role first,
// the behavioural role second. Factories with no names builds it.
var Default = []string{"sentinel", "arcane"}

// Names returns every registered detector name, sorted.
func Names() []string { return slices.Sorted(maps.Keys(entries)) }

// Role is the role a detector plays among the paper's sides — commercial,
// behavioural or trajectory — or, for a detector the registry does not
// know, its own name.
func Role(name string) string {
	if e, ok := entries[name]; ok {
		return e.role
	}
	return name
}

// Factories resolves detector names to factories building them under cfg,
// preserving order. No names selects Default. A name may appear once:
// hosts find a side's verdicts and state by its name.
func Factories(cfg Config, names ...string) ([]detector.Factory, error) {
	if len(names) == 0 {
		names = Default
	}
	fs := make([]detector.Factory, len(names))
	for i, name := range names {
		e, ok := entries[name]
		if !ok {
			return nil, fmt.Errorf("unknown detector %q (have %v)", name, Names())
		}
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("duplicate detector %q", name)
		}
		fs[i] = func() (detector.Detector, error) { return e.build(cfg) }
	}
	return fs, nil
}
