package uaparse

import (
	"strings"
	"testing"
)

// FuzzParse feeds Parse arbitrary agents — it classifies every User-Agent
// a client sends, and after the enrichers' per-address memo it is the only
// per-agent work a cache miss does. It must not panic, must keep the input
// as Raw, must be a function of its input alone, and must answer a defined
// class and a non-negative version.
func FuzzParse(f *testing.F) {
	// SNIPPETS.md §2's bot and headless patterns, bare and inside an agent.
	for _, p := range []string{
		"bot", "crawl", "spider", "scrape", "python", "curl", "wget", "libwww", "scrapy", "requests",
		"mechanize", "beautifulsoup", "selenium", "puppeteer", "playwright", "headless", "phantom",
	} {
		f.Add(p)
		f.Add("Mozilla/5.0 (compatible; " + p + "/2.1; +http://example.com/" + p + ".html)")
		f.Add("Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) " + strings.ToUpper(p) + "/99999999999999999999 Safari/537.36")
	}
	// The scanner and attack-tool agents logfmt's fuzz target starts from.
	for _, ua := range []string{
		"Mozilla/5.00 (Nikto/2.1.6) (Evasions:None) (Test:000001)", "sqlmap/1.7.2#stable (https://sqlmap.org)",
		"Mozilla/5.0 (compatible; Nmap Scripting Engine; https://nmap.org/book/nse.html)", "masscan/1.3 (https://github.com/robertdavidgraham/masscan)",
		"Nessus SOAP", "Acunetix-Product", "DirBuster-1.0-RC1 (http://www.owasp.org/index.php/Category:OWASP_DirBuster_Project)",
		"gobuster/3.6", "Mozilla/4.0 (Hydra)", "Mozilla/5.0 (compatible; MSIE 9.0; Metasploit)", "Burp Suite Professional",
		`() { :; }; /bin/bash -c "id"`, "${jndi:ldap://x/a}", "a\nb", strings.Repeat("A", 5000),
	} {
		f.Add(ua)
	}
	// The enricher tests' agents, and tokens cut at their markers.
	for _, ua := range []string{
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36",
		"Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0",
		"Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
		"python-requests/2.18.4", "curl/7.58.0", "Scrapy/1.5.0 (+https://scrapy.org)", "Mozilla/5.0 (returning 3)",
		"one-shot/7", "rotating/2", "", "-", "curl/", "Version/", "MSIE ", "Edge/-1", "Chrome/0x10",
	} {
		f.Add(ua)
	}

	f.Fuzz(func(t *testing.T, raw string) {
		info := Parse(raw)
		if again := Parse(raw); again != info {
			t.Fatalf("Parse(%q) gave %+v, then %+v", raw, info, again)
		}
		if info.Raw != raw {
			t.Fatalf("Parse(%q).Raw = %q", raw, info.Raw)
		}
		if _, ok := classNames[info.Class]; !ok {
			t.Fatalf("Parse(%q).Class = %d, not a defined class", raw, info.Class)
		}
		if info.Major < 0 {
			t.Fatalf("Parse(%q).Major = %d", raw, info.Major)
		}
	})
}
