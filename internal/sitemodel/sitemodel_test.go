package sitemodel

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func testSite(t *testing.T) *Site {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		mod  func(*Config)
	}{
		{"zero categories", func(c *Config) { c.Categories = 0 }},
		{"zero products", func(c *Config) { c.ProductsPerCategory = 0 }},
		{"zero page size", func(c *Config) { c.PageSize = 0 }},
		{"negative error rate", func(c *Config) { c.ServerErrorRate = -0.1 }},
		{"unit error rate", func(c *Config) { c.ServerErrorRate = 1 }},
		{"negative redirect rate", func(c *Config) { c.RedirectRate = -0.1 }},
		{"unit redirect rate", func(c *Config) { c.RedirectRate = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mod(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestCatalogueGeometry(t *testing.T) {
	s := testSite(t)
	cfg := DefaultConfig()
	if s.Products() != cfg.Categories*cfg.ProductsPerCategory {
		t.Errorf("Products = %d", s.Products())
	}
	if s.Categories() != cfg.Categories {
		t.Errorf("Categories = %d", s.Categories())
	}
	wantPages := (cfg.ProductsPerCategory + cfg.PageSize - 1) / cfg.PageSize
	if s.PagesInCategory() != wantPages {
		t.Errorf("PagesInCategory = %d, want %d", s.PagesInCategory(), wantPages)
	}

	// Every product appears on exactly one page of its own category.
	seen := make(map[int]bool)
	for cat := 0; cat < s.Categories(); cat++ {
		for page := 0; page < s.PagesInCategory(); page++ {
			for _, id := range s.ProductsOnPage(cat, page) {
				if seen[id] {
					t.Fatalf("product %d listed twice", id)
				}
				seen[id] = true
				if got := id / s.cfg.ProductsPerCategory; got != cat {
					t.Fatalf("product %d on category %d page but belongs to %d", id, cat, got)
				}
			}
		}
	}
	if len(seen) != s.Products() {
		t.Errorf("pagination covers %d products, want %d", len(seen), s.Products())
	}

	// Out-of-range queries are nil, not panics.
	if s.ProductsOnPage(-1, 0) != nil || s.ProductsOnPage(0, 9999) != nil {
		t.Error("out-of-range page returned products")
	}
}

func TestClassifyPathRoundTrip(t *testing.T) {
	s := testSite(t)
	tests := []struct {
		give string
		want PathInfo
	}{
		{HomePath, PathInfo{Kind: KindHome, ProductID: -1, Category: -1, Page: -1}},
		{RobotsPath, PathInfo{Kind: KindRobots, ProductID: -1, Category: -1, Page: -1}},
		{ChallengeScriptPath, PathInfo{Kind: KindChallengeScript, ProductID: -1, Category: -1, Page: -1}},
		{ChallengeVerifyPath, PathInfo{Kind: KindChallengeVerify, ProductID: -1, Category: -1, Page: -1}},
		{HealthPath, PathInfo{Kind: KindHealth, ProductID: -1, Category: -1, Page: -1}},
		{LoginPath, PathInfo{Kind: KindLogin, ProductID: -1, Category: -1, Page: -1}},
		{GeoPath, PathInfo{Kind: KindGeo, ProductID: -1, Category: -1, Page: -1}},
		{CartPath, PathInfo{Kind: KindCart, ProductID: -1, Category: -1, Page: -1}},
		{CheckoutPath, PathInfo{Kind: KindCheckout, ProductID: -1, Category: -1, Page: -1}},
		{AdminPath, PathInfo{Kind: KindAdmin, ProductID: -1, Category: -1, Page: -1}},
		{ProductPath(17), PathInfo{Kind: KindProduct, ProductID: 17, Category: -1, Page: -1}},
		{PricePath(9999), PathInfo{Kind: KindPrice, ProductID: 9999, Category: -1, Page: -1}},
		{CategoryPath(3, 0), PathInfo{Kind: KindCategory, ProductID: -1, Category: 3, Page: 0}},
		{CategoryPath(3, 7), PathInfo{Kind: KindCategory, ProductID: -1, Category: 3, Page: 7}},
		{SearchPath("flights paris"), PathInfo{Kind: KindSearch, ProductID: -1, Category: -1, Page: -1}},
		{"/static/app.css", PathInfo{Kind: KindStatic, ProductID: -1, Category: -1, Page: -1}},
		{"/product/xyz", PathInfo{Kind: KindOther, ProductID: -1, Category: -1, Page: -1}},
		{"/nowhere", PathInfo{Kind: KindOther, ProductID: -1, Category: -1, Page: -1}},
	}
	for _, tt := range tests {
		if got := ClassifyPath(tt.give); got != tt.want {
			t.Errorf("ClassifyPath(%q) = %+v, want %+v", tt.give, got, tt.want)
		}
	}
	_ = s
}

func TestClassifyPathProperty(t *testing.T) {
	// ProductPath/PricePath/CategoryPath always classify back to their
	// own ids.
	f := func(id uint16, cat uint8, page uint8) bool {
		p := ClassifyPath(ProductPath(int(id)))
		if p.Kind != KindProduct || p.ProductID != int(id) {
			return false
		}
		pr := ClassifyPath(PricePath(int(id)))
		if pr.Kind != KindPrice || pr.ProductID != int(id) {
			return false
		}
		c := ClassifyPath(CategoryPath(int(cat), int(page)))
		return c.Kind == KindCategory && c.Category == int(cat) && c.Page == int(page)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPageKindIsPage(t *testing.T) {
	pages := []PageKind{KindHome, KindCategory, KindProduct, KindSearch, KindCart, KindCheckout}
	nonPages := []PageKind{KindStatic, KindPrice, KindRobots, KindChallengeScript,
		KindChallengeVerify, KindHealth, KindLogin, KindGeo, KindAdmin, KindOther}
	for _, k := range pages {
		if !k.IsPage() {
			t.Errorf("%v should be a page", k)
		}
	}
	for _, k := range nonPages {
		if k.IsPage() {
			t.Errorf("%v should not be a page", k)
		}
	}
}

func TestRespond(t *testing.T) {
	s := testSite(t)
	tests := []struct {
		name       string
		req        PageRequest
		wantStatus int
	}{
		{"home", PageRequest{Method: "GET", Path: "/", Roll: 0.9}, 200},
		{"valid product", PageRequest{Method: "GET", Path: ProductPath(0), Roll: 0.9}, 200},
		{"invalid product", PageRequest{Method: "GET", Path: ProductPath(10_000_000), Roll: 0.9}, 404},
		{"product conditional", PageRequest{Method: "GET", Path: ProductPath(0), Conditional: true, Roll: 0.9}, 304},
		{"product redirect roll", PageRequest{Method: "GET", Path: ProductPath(0), Roll: 0.01}, 302},
		{"valid price", PageRequest{Method: "GET", Path: PricePath(1), Roll: 0.9}, 200},
		{"invalid price", PageRequest{Method: "GET", Path: PricePath(-1), Roll: 0.9}, 404},
		{"category", PageRequest{Method: "GET", Path: CategoryPath(0, 0), Roll: 0.9}, 200},
		{"bad category", PageRequest{Method: "GET", Path: "/category/99999", Roll: 0.9}, 404},
		{"search", PageRequest{Method: "GET", Path: SearchPath("x"), Roll: 0.9}, 200},
		{"login redirects", PageRequest{Method: "GET", Path: LoginPath}, 302},
		{"geo redirects", PageRequest{Method: "GET", Path: GeoPath}, 302},
		{"admin forbidden", PageRequest{Method: "GET", Path: AdminPath}, 403},
		{"health no content", PageRequest{Method: "GET", Path: HealthPath}, 204},
		{"verify no content", PageRequest{Method: "POST", Path: ChallengeVerifyPath}, 204},
		{"challenge script", PageRequest{Method: "GET", Path: ChallengeScriptPath}, 200},
		{"robots", PageRequest{Method: "GET", Path: RobotsPath}, 200},
		{"static", PageRequest{Method: "GET", Path: "/static/app.css"}, 200},
		{"static conditional", PageRequest{Method: "GET", Path: "/static/app.css", Conditional: true}, 304},
		{"malformed", PageRequest{Method: "GET", Path: "/anything", Malformed: true}, 400},
		{"unknown path", PageRequest{Method: "GET", Path: "/enoent", Roll: 0.9}, 404},
		{"server error roll", PageRequest{Method: "GET", Path: "/", Roll: 0.0000001}, 500},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := s.Respond(tt.req)
			if got.Status != tt.wantStatus {
				t.Errorf("Respond(%+v).Status = %d, want %d", tt.req, got.Status, tt.wantStatus)
			}
			if got.Status == 304 || got.Status == 204 {
				if got.Bytes != -1 {
					t.Errorf("status %d should log '-' bytes, got %d", got.Status, got.Bytes)
				}
			} else if got.Bytes <= 0 {
				t.Errorf("status %d has non-positive size %d", got.Status, got.Bytes)
			}
		})
	}
}

func TestRespondDeterministic(t *testing.T) {
	s := testSite(t)
	req := PageRequest{Method: "GET", Path: ProductPath(42), Roll: 0.9}
	first := s.Respond(req)
	for i := 0; i < 5; i++ {
		if got := s.Respond(req); got != first {
			t.Fatalf("Respond not deterministic: %+v vs %+v", got, first)
		}
	}
}

func TestRobotsPolicy(t *testing.T) {
	txt := RobotsTxt()
	for _, want := range []string{"Disallow: /cart", "Disallow: /api/", "Crawl-delay"} {
		if !strings.Contains(txt, want) {
			t.Errorf("robots.txt missing %q", want)
		}
	}
	allowed := []string{HomePath, ProductPath(1), CategoryPath(0, 0), "/search", "/static/app.css", RobotsPath}
	disallowed := []string{CartPath, CheckoutPath, LoginPath, AdminPath, PricePath(3), "/api/price/88"}
	for _, p := range allowed {
		if DisallowedByRobots(p) {
			t.Errorf("%s should be allowed", p)
		}
	}
	for _, p := range disallowed {
		if !DisallowedByRobots(p) {
			t.Errorf("%s should be disallowed", p)
		}
	}
}

func TestSearchPathEscaping(t *testing.T) {
	got := SearchPath("a b&c=d%")
	if strings.ContainsAny(got[len("/search?q="):], " &=") {
		t.Errorf("unescaped reserved characters in %q", got)
	}
	if ClassifyPath(got).Kind != KindSearch {
		t.Errorf("escaped search path misclassified: %q", got)
	}
}

// TestPageKindStringExhaustive pins the dense name table: every declared
// kind must have a unique, non-empty name, and must never hit the
// "kind(N)" fallback — a newly added kind without a name entry fails
// here instead of silently rendering as its number.
func TestPageKindStringExhaustive(t *testing.T) {
	seen := make(map[string]PageKind, int(KindCount))
	for k := PageKind(0); k < KindCount; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has empty name", k)
		}
		if strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d fell back to %q; add it to pageKindNames", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	// Out-of-range values must keep the diagnostic fallback.
	if got, want := KindCount.String(), "kind("+strconv.Itoa(int(KindCount))+")"; got != want {
		t.Errorf("KindCount.String() = %q, want %q", got, want)
	}
	if got := PageKind(-1).String(); got != "kind(-1)" {
		t.Errorf("PageKind(-1).String() = %q, want the kind(N) fallback", got)
	}
}
