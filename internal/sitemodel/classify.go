package sitemodel

import (
	"strconv"
	"strings"
)

// PageKind is the coarse type of a request target within the site's URL
// space. Enrichment classifies each request's path once, and the detectors
// reason about behaviour (pages vs assets vs API) from the kind without
// string-matching in their hot loops.
type PageKind int

const (
	// KindOther is any path outside the known URL space.
	KindOther PageKind = iota
	// KindHome is the site root.
	KindHome
	// KindCategory is a category listing page.
	KindCategory
	// KindProduct is a product detail page.
	KindProduct
	// KindPrice is the JSON price API.
	KindPrice
	// KindSearch is the search results page.
	KindSearch
	// KindStatic is a static asset.
	KindStatic
	// KindRobots is robots.txt.
	KindRobots
	// KindChallengeScript is the served bot-mitigation script.
	KindChallengeScript
	// KindChallengeVerify is the challenge solution beacon.
	KindChallengeVerify
	// KindHealth is the load-balancer probe.
	KindHealth
	// KindLogin is the login redirect.
	KindLogin
	// KindGeo is the region-selection redirect.
	KindGeo
	// KindCart is the shopping cart.
	KindCart
	// KindCheckout is the checkout flow.
	KindCheckout
	// KindAdmin is the unlinked admin path (probing only).
	KindAdmin

	// KindCount is the number of declared kinds. New kinds go above this
	// line; the exhaustiveness test fails any kind missing a name, and
	// consumers size dense per-kind tables (e.g. the trajectory detector's
	// transition matrix) with it.
	KindCount
)

// pageKindNames is a dense per-kind table: String sits on the detectors'
// hot classification paths, where the previous map lookup cost a hash per
// call.
var pageKindNames = [KindCount]string{
	KindOther:           "other",
	KindHome:            "home",
	KindCategory:        "category",
	KindProduct:         "product",
	KindPrice:           "price",
	KindSearch:          "search",
	KindStatic:          "static",
	KindRobots:          "robots",
	KindChallengeScript: "challenge-script",
	KindChallengeVerify: "challenge-verify",
	KindHealth:          "health",
	KindLogin:           "login",
	KindGeo:             "geo",
	KindCart:            "cart",
	KindCheckout:        "checkout",
	KindAdmin:           "admin",
}

// String returns the kind's stable name.
func (k PageKind) String() string {
	if k >= 0 && k < KindCount {
		if s := pageKindNames[k]; s != "" {
			return s
		}
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// IsPage reports whether the kind is an HTML document a browser would
// render (and therefore be followed by asset fetches and, on first view,
// challenge execution).
func (k PageKind) IsPage() bool {
	switch k {
	case KindHome, KindCategory, KindProduct, KindSearch, KindCart, KindCheckout:
		return true
	default:
		return false
	}
}

// PathInfo is the parsed view of one request target.
type PathInfo struct {
	// Kind is the coarse page type.
	Kind PageKind
	// ProductID is set for KindProduct and KindPrice (otherwise -1).
	ProductID int
	// Category and Page are set for KindCategory (otherwise -1).
	Category int
	Page     int
}

// ClassifyPath parses a request target (query string allowed) into a
// PathInfo. It is pure string inspection: ids are syntactic and not
// validated against any catalogue bounds.
func ClassifyPath(target string) PathInfo {
	info := PathInfo{ProductID: -1, Category: -1, Page: -1}
	path, query := target, ""
	if i := strings.IndexByte(target, '?'); i >= 0 {
		path, query = target[:i], target[i+1:]
	}
	switch path {
	case HomePath:
		info.Kind = KindHome
		return info
	case RobotsPath:
		info.Kind = KindRobots
		return info
	case ChallengeScriptPath:
		info.Kind = KindChallengeScript
		return info
	case ChallengeVerifyPath:
		info.Kind = KindChallengeVerify
		return info
	case HealthPath:
		info.Kind = KindHealth
		return info
	case LoginPath:
		info.Kind = KindLogin
		return info
	case GeoPath:
		info.Kind = KindGeo
		return info
	case CartPath:
		info.Kind = KindCart
		return info
	case CheckoutPath:
		info.Kind = KindCheckout
		return info
	case AdminPath:
		info.Kind = KindAdmin
		return info
	case "/search":
		info.Kind = KindSearch
		return info
	}
	switch {
	case strings.HasPrefix(path, "/static/"):
		info.Kind = KindStatic
	case strings.HasPrefix(path, "/product/"):
		if id, ok := trailingInt(path, "/product/"); ok {
			info.Kind = KindProduct
			info.ProductID = id
		}
	case strings.HasPrefix(path, "/api/price/"):
		if id, ok := trailingInt(path, "/api/price/"); ok {
			info.Kind = KindPrice
			info.ProductID = id
		}
	case strings.HasPrefix(path, "/category/"):
		if cat, ok := trailingInt(path, "/category/"); ok {
			info.Kind = KindCategory
			info.Category = cat
			info.Page = 0
			if query != "" {
				info.Page = pageFromQuery(query)
			}
		}
	}
	return info
}

// pageFromQuery scans the query string for a page= parameter without
// splitting it into an allocated slice — ClassifyPath runs once per
// request, in the enricher (detector.Request.Target).
func pageFromQuery(query string) int {
	for len(query) > 0 {
		kv := query
		if i := strings.IndexByte(query, '&'); i >= 0 {
			kv, query = query[:i], query[i+1:]
		} else {
			query = ""
		}
		if v, ok := strings.CutPrefix(kv, "page="); ok {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				return n
			}
		}
	}
	return 0
}
