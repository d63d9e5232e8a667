package uaparse

import "strings"

// Era describes the version window a fingerprint checker considers
// plausible for mainstream browsers at the time of the traffic. The
// evaluation models a March 2018 capture, matching the paper's dataset.
type Era struct {
	// ChromeMin/ChromeMax bound plausible Chrome major versions.
	ChromeMin, ChromeMax int
	// FirefoxMin/FirefoxMax bound plausible Firefox major versions.
	FirefoxMin, FirefoxMax int
	// SafariMin/SafariMax bound plausible Safari major versions.
	SafariMin, SafariMax int
	// IEMin/IEMax bound plausible Internet Explorer versions; zero values
	// disable the IE check (custom eras that pre-date the split).
	IEMin, IEMax int
}

// Era2018 is the plausibility window for the paper's March 2018 dataset:
// Chrome 64-65, Firefox 58-59 and Safari 11 were current; anything far
// outside the window is either ancient (a canned UA baked into a scraping
// kit years earlier) or impossible.
func Era2018() Era {
	return Era{
		ChromeMin: 49, ChromeMax: 66,
		FirefoxMin: 45, FirefoxMax: 60,
		SafariMin: 9, SafariMax: 12,
		IEMin: 10, IEMax: 11,
	}
}

// Violation is one fingerprint-consistency problem found in a UA string.
type Violation string

// Fingerprint violations surfaced by Check. These are the per-request UA
// checks a commercial product performs; cross-request checks (UA rotation
// per IP) live in the detector, which has the per-client state.
const (
	// ViolationEmptyUA flags a missing User-Agent header.
	ViolationEmptyUA Violation = "empty-ua"
	// ViolationToolUA flags a declared HTTP library or CLI client.
	ViolationToolUA Violation = "tool-ua"
	// ViolationHeadless flags a declared automation-controlled browser.
	ViolationHeadless Violation = "headless-ua"
	// ViolationStaleVersion flags a browser version far older than the
	// plausibility window (canned UA from an old scraping kit).
	ViolationStaleVersion Violation = "stale-version"
	// ViolationFutureVersion flags a browser version newer than any
	// shipping release (fabricated string).
	ViolationFutureVersion Violation = "future-version"
	// ViolationMalformedMozilla flags browser-family claims without the
	// standard Mozilla/5.0 preamble.
	ViolationMalformedMozilla Violation = "malformed-mozilla"
	// ViolationNoOS flags a browser claim carrying no platform tokens;
	// every mainstream browser advertises its OS.
	ViolationNoOS Violation = "no-os-token"
	// ViolationSpoofedBot flags strings claiming a search-engine identity
	// whose verification fails (checked by the caller against IP ranges;
	// surfaced here when the claim itself is structurally wrong).
	ViolationSpoofedBot Violation = "spoofed-bot"
)

// Checker validates UA internal consistency against an era window.
type Checker struct {
	era Era
}

// NewChecker returns a Checker for the given era.
func NewChecker(era Era) *Checker {
	return &Checker{era: era}
}

// AppendCheck appends info's consistency violations to dst and returns the
// extended slice, letting hot paths reuse one scratch buffer across
// requests instead of allocating per call.
// Nothing appended means the string is internally plausible (which does not
// prove a real browser sent it — that is what the challenge flow is for).
func (c *Checker) AppendCheck(dst []Violation, info Info) []Violation {
	out := dst
	switch info.Class {
	case ClassEmpty:
		out = append(out, ViolationEmptyUA)
	case ClassTool:
		out = append(out, ViolationToolUA)
	case ClassHeadless:
		out = append(out, ViolationHeadless)
	case ClassBrowser:
		out = c.appendBrowser(out, info)
	case ClassSearchBot:
		// Structural sanity: declared bots should carry the "+http" contact
		// convention; kits that paste just the word "Googlebot" do not.
		if !containsFold(info.Raw, "+http") && !containsFold(info.Raw, "compatible") {
			out = append(out, ViolationSpoofedBot)
		}
	}
	return out
}

// containsFold reports whether s contains sub under ASCII case folding,
// without lowering the whole string into a fresh allocation.
func containsFold(s, sub string) bool {
	return indexFold(s, sub) >= 0
}

// indexFold returns the first case-folded occurrence of sub in s (sub is
// expected lowercase ASCII, as all signature tokens are), or -1. This is
// the byte-wise matcher behind the whole UA parse path: folding happens
// per comparison, so no lowered copy of a hostile, never-cached UA string
// is ever built.
func indexFold(s, sub string) int {
	if len(sub) == 0 {
		return 0
	}
	if len(sub) > len(s) {
		return -1
	}
	c0 := sub[0]
	var u0 byte
	if 'a' <= c0 && c0 <= 'z' {
		u0 = c0 - ('a' - 'A')
	} else {
		u0 = c0
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if b := s[i]; b != c0 && b != u0 {
			continue
		}
		if equalFoldASCII(s[i:i+len(sub)], sub) {
			return i
		}
	}
	return -1
}

// equalFoldASCII compares equal-length strings case-insensitively; sub is
// expected to be lowercase already.
func equalFoldASCII(s, sub string) bool {
	for i := 0; i < len(sub); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != sub[i] {
			return false
		}
	}
	return true
}

func (c *Checker) appendBrowser(dst []Violation, info Info) []Violation {
	out := dst
	if !strings.HasPrefix(info.Raw, "Mozilla/") {
		out = append(out, ViolationMalformedMozilla)
	}
	if info.OS == "" {
		out = append(out, ViolationNoOS)
	}
	var min, max int
	switch info.Family {
	case "chrome", "edge":
		min, max = c.era.ChromeMin, c.era.ChromeMax
	case "firefox":
		min, max = c.era.FirefoxMin, c.era.FirefoxMax
	case "safari":
		min, max = c.era.SafariMin, c.era.SafariMax
	case "ie":
		if c.era.IEMin == 0 {
			return out
		}
		min, max = c.era.IEMin, c.era.IEMax
	default:
		return out
	}
	switch {
	case info.Major == 0:
		// Version missing entirely from a browser string.
		out = append(out, ViolationMalformedMozilla)
	case info.Major < min:
		out = append(out, ViolationStaleVersion)
	case info.Major > max:
		out = append(out, ViolationFutureVersion)
	}
	return out
}
