package sitemodel

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzClassifyPath holds ClassifyPath to the properties its two past bugs
// broke. A query string never changes what a path is: appending one may
// move Page, never Kind, ProductID or Category. Only the exact challenge
// paths are the challenge flow, so no percent-encoded spelling of either
// reaches it. And no input panics.
func FuzzClassifyPath(f *testing.F) {
	for _, target := range []string{"/", "/product/7", "/api/price/12", "/category/3", "/category/3?page=2",
		"/static/app.css", ChallengeScriptPath, ChallengeVerifyPath, "/__verif%79", "/product/7?ref=home"} {
		f.Add(target, "page=4&x=1", uint64(1))
	}
	f.Fuzz(func(t *testing.T, target, query string, encode uint64) {
		path, _, _ := strings.Cut(target, "?")
		bare, got := ClassifyPath(path), ClassifyPath(path+"?"+query)
		if got.Kind != bare.Kind || got.ProductID != bare.ProductID || got.Category != bare.Category {
			t.Fatalf("%q classifies %+v, with query %q %+v", path, bare, query, got)
		}
		if k := ClassifyPath(target).Kind; (k == KindChallengeScript && path != ChallengeScriptPath) ||
			(k == KindChallengeVerify && path != ChallengeVerifyPath) {
			t.Fatalf("%q classifies as challenge kind %v", target, k)
		}
		// Percent-encode the bytes encode selects (after the leading
		// slash, at least one), in upper or lower case hex by its top bit.
		for _, exact := range []string{ChallengeScriptPath, ChallengeVerifyPath} {
			var b strings.Builder
			b.WriteByte('/')
			sel := encode | 1
			for i := 1; i < len(exact); i++ {
				switch c := exact[i]; {
				case sel&(1<<((i-1)%63)) == 0:
					b.WriteByte(c)
				case encode>>63 == 1:
					fmt.Fprintf(&b, "%%%02x", c)
				default:
					fmt.Fprintf(&b, "%%%02X", c)
				}
			}
			for _, spelled := range []string{b.String(), b.String() + "?" + query} {
				if k := ClassifyPath(spelled).Kind; k == KindChallengeScript || k == KindChallengeVerify {
					t.Fatalf("percent-encoded %q classifies as challenge kind %v", spelled, k)
				}
			}
		}
	})
}
