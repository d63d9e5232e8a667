// Package sitemodel defines the synthetic e-commerce application whose
// Apache access logs the evaluation generates: a catalogue of categories
// and products, the URL space over them, per-page static assets, the
// robots.txt policy and the response-status logic. The DSN 2018 paper's
// dataset came from a travel e-commerce application; this model plays that
// role. Price endpoints and product pages are the scraping targets.
package sitemodel

import (
	"fmt"
	"strconv"
	"strings"
)

// Config sizes the catalogue.
type Config struct {
	// Categories is the number of product categories (> 0).
	Categories int
	// ProductsPerCategory is the catalogue depth per category (> 0).
	ProductsPerCategory int
	// PageSize is the number of products listed per category page (> 0).
	PageSize int
	// ServerErrorRate is the probability that any dynamic request fails
	// with a 500, modelling backend flakiness. In [0, 1).
	ServerErrorRate float64
	// RedirectRate is the probability that a product or search request is
	// answered with a 302 to its canonical/regional URL — travel
	// e-commerce applications redirect constantly, which is why 302 is
	// the second-most-alerted status in the paper's tables. In [0, 1).
	RedirectRate float64
}

// DefaultConfig returns a catalogue comparable to a mid-size travel
// e-commerce deployment.
func DefaultConfig() Config {
	return Config{
		Categories:          40,
		ProductsPerCategory: 250,
		PageSize:            25,
		ServerErrorRate:     0.00002,
		RedirectRate:        0.028,
	}
}

// Site is the immutable synthetic application. Safe for concurrent use.
type Site struct {
	cfg      Config
	products int
}

// New validates the configuration and builds the site.
func New(cfg Config) (*Site, error) {
	if cfg.Categories <= 0 {
		return nil, fmt.Errorf("sitemodel: Categories must be positive, got %d", cfg.Categories)
	}
	if cfg.ProductsPerCategory <= 0 {
		return nil, fmt.Errorf("sitemodel: ProductsPerCategory must be positive, got %d", cfg.ProductsPerCategory)
	}
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("sitemodel: PageSize must be positive, got %d", cfg.PageSize)
	}
	if cfg.ServerErrorRate < 0 || cfg.ServerErrorRate >= 1 {
		return nil, fmt.Errorf("sitemodel: ServerErrorRate must be in [0,1), got %g", cfg.ServerErrorRate)
	}
	if cfg.RedirectRate < 0 || cfg.RedirectRate >= 1 {
		return nil, fmt.Errorf("sitemodel: RedirectRate must be in [0,1), got %g", cfg.RedirectRate)
	}
	return &Site{cfg: cfg, products: cfg.Categories * cfg.ProductsPerCategory}, nil
}

// Products returns the catalogue size.
func (s *Site) Products() int { return s.products }

// Categories returns the number of categories.
func (s *Site) Categories() int { return s.cfg.Categories }

// PagesInCategory returns the number of listing pages in a category.
func (s *Site) PagesInCategory() int {
	return (s.cfg.ProductsPerCategory + s.cfg.PageSize - 1) / s.cfg.PageSize
}

// ProductsOnPage returns the product ids listed on one category page.
func (s *Site) ProductsOnPage(category, page int) []int {
	if category < 0 || category >= s.cfg.Categories || page < 0 || page >= s.PagesInCategory() {
		return nil
	}
	start := category*s.cfg.ProductsPerCategory + page*s.cfg.PageSize
	end := start + s.cfg.PageSize
	if limit := (category + 1) * s.cfg.ProductsPerCategory; end > limit {
		end = limit
	}
	out := make([]int, 0, end-start)
	for id := start; id < end; id++ {
		out = append(out, id)
	}
	return out
}

// ValidProduct reports whether a product id exists in the catalogue.
func (s *Site) ValidProduct(id int) bool { return id >= 0 && id < s.products }

// Path construction. Centralised here so actors and detectors agree on
// URL shapes.

// HomePath is the site root.
const HomePath = "/"

// ChallengeScriptPath serves the bot-mitigation JavaScript challenge that
// real browsers execute on their first page view.
const ChallengeScriptPath = "/__challenge.js"

// ChallengeVerifyPath receives the challenge solution beacon (a POST that
// answers 204). Clients that never hit this path after browsing pages have
// not executed JavaScript.
const ChallengeVerifyPath = "/__verify"

// RobotsPath serves the crawl policy.
const RobotsPath = "/robots.txt"

// HealthPath answers load-balancer probes.
const HealthPath = "/health"

// LoginPath redirects to the home page after setting a session.
const LoginPath = "/login"

// GeoPath is the region-selection redirect issued at session entry.
const GeoPath = "/geo"

// CartPath and CheckoutPath are transactional pages disallowed to robots.
const (
	CartPath     = "/cart"
	CheckoutPath = "/checkout"
)

// AdminPath is not linked anywhere; only probing clients request it.
const AdminPath = "/admin"

// ProductPath returns the canonical product page URL.
func ProductPath(id int) string {
	return "/product/" + strconv.Itoa(id)
}

// CategoryPath returns a category listing page URL (page is zero-based).
func CategoryPath(category, page int) string {
	if page == 0 {
		return "/category/" + strconv.Itoa(category)
	}
	return "/category/" + strconv.Itoa(category) + "?page=" + strconv.Itoa(page)
}

// PricePath returns the JSON price API URL for a product — the endpoint
// price-scraping campaigns target.
func PricePath(id int) string {
	return "/api/price/" + strconv.Itoa(id)
}

// SearchPath returns a search results URL.
func SearchPath(query string) string {
	return "/search?q=" + escapeQuery(query)
}

func escapeQuery(q string) string {
	var sb strings.Builder
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch {
		case c == ' ':
			sb.WriteByte('+')
		case c == '+' || c == '%' || c == '&' || c == '=' || c == '#' || c < 0x20 || c >= 0x7f:
			fmt.Fprintf(&sb, "%%%02X", c)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// StaticAssets lists the assets a browser fetches after loading any HTML
// page. Product pages additionally pull their image (see ProductAssets).
func StaticAssets() []string {
	return []string{
		"/static/app.css",
		"/static/app.js",
		"/static/logo.png",
	}
}

// ProductAssets lists the extra assets for a product page.
func ProductAssets(id int) []string {
	return []string{"/static/img/p" + strconv.Itoa(id) + ".jpg"}
}

// RobotsTxt renders the crawl policy: transactional and API paths are
// disallowed; well-behaved crawlers honour it, scrapers do not.
func RobotsTxt() string {
	return strings.Join([]string{
		"User-agent: *",
		"Disallow: /cart",
		"Disallow: /checkout",
		"Disallow: /api/",
		"Disallow: /login",
		"Disallow: /admin",
		"Crawl-delay: 5",
		"",
	}, "\n")
}

// DisallowedByRobots reports whether a path is off-limits under the
// robots.txt policy above.
func DisallowedByRobots(path string) bool {
	switch {
	case path == CartPath, path == CheckoutPath, path == LoginPath, path == AdminPath:
		return true
	case strings.HasPrefix(path, "/api/"):
		return true
	default:
		return false
	}
}
