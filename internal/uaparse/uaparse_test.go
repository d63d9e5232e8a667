package uaparse

import "testing"

func TestParseClassification(t *testing.T) {
	tests := []struct {
		name       string
		give       string
		wantClass  Class
		wantFamily string
		wantMajor  int
		wantOS     string
		wantMobile bool
	}{
		{
			name:      "chrome on windows",
			give:      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36",
			wantClass: ClassBrowser, wantFamily: "chrome", wantMajor: 64, wantOS: "windows",
		},
		{
			name:      "firefox on linux",
			give:      "Mozilla/5.0 (X11; Linux x86_64; rv:58.0) Gecko/20100101 Firefox/58.0",
			wantClass: ClassBrowser, wantFamily: "firefox", wantMajor: 58, wantOS: "linux",
		},
		{
			name:      "safari on mac",
			give:      "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_13_3) AppleWebKit/604.5.6 (KHTML, like Gecko) Version/11.0.3 Safari/604.5.6",
			wantClass: ClassBrowser, wantFamily: "safari", wantMajor: 11, wantOS: "macos",
		},
		{
			name:      "mobile chrome on android",
			give:      "Mozilla/5.0 (Linux; Android 8.0.0; Pixel 2 Build/OPD1.170816.004) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.137 Mobile Safari/537.36",
			wantClass: ClassBrowser, wantFamily: "chrome", wantMajor: 64, wantOS: "android", wantMobile: true,
		},
		{
			name:      "edge contains chrome token but is edge",
			give:      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.167 Safari/537.36 Edge/16.16299",
			wantClass: ClassBrowser, wantFamily: "edge", wantMajor: 16, wantOS: "windows",
		},
		{
			name:      "legacy msie",
			give:      "Mozilla/4.0 (compatible; MSIE 7.0; Windows NT 5.1)",
			wantClass: ClassBrowser, wantFamily: "ie", wantMajor: 7, wantOS: "windows",
		},
		{
			name:      "googlebot",
			give:      "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
			wantClass: ClassSearchBot, wantFamily: "googlebot", wantMajor: 2,
		},
		{
			name:      "bingbot",
			give:      "Mozilla/5.0 (compatible; bingbot/2.0; +http://www.bing.com/bingbot.htm)",
			wantClass: ClassSearchBot, wantFamily: "bingbot", wantMajor: 2,
		},
		{
			name:      "headless chrome",
			give:      "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) HeadlessChrome/64.0.3282.186 Safari/537.36",
			wantClass: ClassHeadless, wantFamily: "headlesschrome", wantMajor: 64, wantOS: "linux",
		},
		{
			name:      "phantomjs",
			give:      "Mozilla/5.0 (Unknown; Linux x86_64) AppleWebKit/538.1 (KHTML, like Gecko) PhantomJS/2.1.1 Safari/538.1",
			wantClass: ClassHeadless, wantFamily: "phantomjs", wantMajor: 2, wantOS: "linux",
		},
		{
			name:      "python requests",
			give:      "python-requests/2.18.4",
			wantClass: ClassTool, wantFamily: "python-requests", wantMajor: 2,
		},
		{
			name:      "curl",
			give:      "curl/7.58.0",
			wantClass: ClassTool, wantFamily: "curl", wantMajor: 7,
		},
		{
			name:      "go http client",
			give:      "Go-http-client/1.1",
			wantClass: ClassTool, wantFamily: "go-http-client", wantMajor: 1,
		},
		{
			name:      "scrapy",
			give:      "Scrapy/1.5.0 (+https://scrapy.org)",
			wantClass: ClassTool, wantFamily: "scrapy", wantMajor: 1,
		},
		{
			name:      "java",
			give:      "Java/1.8.0_161",
			wantClass: ClassTool, wantFamily: "java", wantMajor: 1,
		},
		{
			name:      "pingdom monitor",
			give:      "Pingdom.com_bot_version_1.4_(http://www.pingdom.com/)",
			wantClass: ClassMonitor, wantFamily: "pingdom",
		},
		{
			name:      "uptimerobot",
			give:      "UptimeRobot/2.0 (http://www.uptimerobot.com/)",
			wantClass: ClassMonitor, wantFamily: "uptimerobot",
		},
		{
			name:      "empty",
			give:      "",
			wantClass: ClassEmpty,
		},
		{
			name:      "dash",
			give:      "-",
			wantClass: ClassEmpty,
		},
		{
			name:      "gibberish",
			give:      "totally unknown agent",
			wantClass: ClassUnknown,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Parse(tt.give)
			if got.Class != tt.wantClass {
				t.Errorf("class = %v, want %v", got.Class, tt.wantClass)
			}
			if got.Family != tt.wantFamily {
				t.Errorf("family = %q, want %q", got.Family, tt.wantFamily)
			}
			if got.Major != tt.wantMajor {
				t.Errorf("major = %d, want %d", got.Major, tt.wantMajor)
			}
			if got.OS != tt.wantOS {
				t.Errorf("os = %q, want %q", got.OS, tt.wantOS)
			}
			if got.Mobile != tt.wantMobile {
				t.Errorf("mobile = %v, want %v", got.Mobile, tt.wantMobile)
			}
			if got.Raw != tt.give {
				t.Errorf("raw not preserved")
			}
		})
	}
}

func TestIsAutomated(t *testing.T) {
	tests := []struct {
		class Class
		want  bool
	}{
		{ClassBrowser, false},
		{ClassEmpty, false},
		{ClassUnknown, false},
		{ClassHeadless, true},
		{ClassSearchBot, true},
		{ClassMonitor, true},
		{ClassTool, true},
	}
	for _, tt := range tests {
		if got := (Info{Class: tt.class}).IsAutomated(); got != tt.want {
			t.Errorf("IsAutomated(%v) = %v, want %v", tt.class, got, tt.want)
		}
	}
}

func TestClassString(t *testing.T) {
	for _, c := range []Class{ClassUnknown, ClassEmpty, ClassBrowser,
		ClassHeadless, ClassSearchBot, ClassMonitor, ClassTool} {
		if c.String() == "" {
			t.Errorf("class %d has empty name", int(c))
		}
	}
	if Class(99).String() != "class(99)" {
		t.Errorf("unknown class renders %q", Class(99).String())
	}
}

func TestCheckerViolations(t *testing.T) {
	c := NewChecker(Era2018())
	tests := []struct {
		name string
		ua   string
		want []Violation
	}{
		{
			name: "clean current chrome",
			ua:   "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36",
			want: nil,
		},
		{
			name: "stale chrome",
			ua:   "Mozilla/5.0 (Windows NT 6.1; WOW64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/41.0.2228.0 Safari/537.36",
			want: []Violation{ViolationStaleVersion},
		},
		{
			name: "future chrome",
			ua:   "Mozilla/5.0 (Windows NT 10.0) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/99.0.0.0 Safari/537.36",
			want: []Violation{ViolationFutureVersion},
		},
		{
			name: "stale msie",
			ua:   "Mozilla/4.0 (compatible; MSIE 7.0; Windows NT 5.1)",
			want: []Violation{ViolationStaleVersion},
		},
		{
			name: "tool",
			ua:   "curl/7.58.0",
			want: []Violation{ViolationToolUA},
		},
		{
			name: "declared headless",
			ua:   "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) HeadlessChrome/64.0.3282.186 Safari/537.36",
			want: []Violation{ViolationHeadless},
		},
		{
			name: "empty",
			ua:   "",
			want: []Violation{ViolationEmptyUA},
		},
		{
			name: "browser with no os tokens",
			ua:   "Mozilla/5.0 AppleWebKit/537.36 Chrome/64.0.3282.186 Safari/537.36",
			want: []Violation{ViolationNoOS},
		},
		{
			name: "chrome claim without mozilla preamble",
			ua:   "Chrome/64.0.3282.186 (Windows NT 10.0)",
			want: []Violation{ViolationMalformedMozilla},
		},
		{
			name: "declared bot without contact convention",
			ua:   "Googlebot",
			want: []Violation{ViolationSpoofedBot},
		},
		{
			name: "proper googlebot claim passes structure",
			ua:   "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := c.AppendCheck(nil, Parse(tt.ua))
			if len(got) != len(tt.want) {
				t.Fatalf("violations = %v, want %v", got, tt.want)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Errorf("violation %d = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestCheckerCustomEraDisablesIE(t *testing.T) {
	c := NewChecker(Era{ChromeMin: 1, ChromeMax: 200, FirefoxMin: 1, FirefoxMax: 200, SafariMin: 1, SafariMax: 200})
	got := c.AppendCheck(nil, Parse("Mozilla/4.0 (compatible; MSIE 7.0; Windows NT 5.1)"))
	if len(got) != 0 {
		t.Errorf("IE check should be disabled with zero IEMin, got %v", got)
	}
}

func BenchmarkParse(b *testing.B) {
	uas := []string{
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36",
		"python-requests/2.18.4",
		"Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(uas[i%len(uas)])
	}
}
