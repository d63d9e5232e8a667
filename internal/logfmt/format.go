package logfmt

import (
	"strconv"
	"strings"
)

// AppendCombined appends the Combined Log Format rendering of e to dst and
// returns the extended buffer. It is the allocation-free counterpart of
// Entry.String for hot generation loops.
func AppendCombined(dst []byte, e *Entry) []byte {
	dst = appendCommon(dst, e)
	dst = append(dst, ' ')
	dst = appendQuoted(dst, e.Referer)
	dst = append(dst, ' ')
	dst = appendQuoted(dst, e.UserAgent)
	return dst
}

func appendCommon(dst []byte, e *Entry) []byte {
	dst = append(dst, orDash(e.RemoteAddr)...)
	dst = append(dst, ' ')
	dst = append(dst, orDash(e.Identity)...)
	dst = append(dst, ' ')
	dst = append(dst, orDash(e.AuthUser)...)
	dst = append(dst, ' ', '[')
	dst = e.Time.AppendFormat(dst, ApacheTime)
	dst = append(dst, ']', ' ')
	dst = appendQuoted(dst, e.RequestLine())
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(e.Status), 10)
	dst = append(dst, ' ')
	dst = append(dst, sizeString(e.Bytes)...)
	return dst
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// appendQuoted writes s surrounded by double quotes, escaping embedded
// quotes and backslashes the way Apache does.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	if !strings.ContainsAny(s, `"\`) {
		dst = append(dst, s...)
	} else {
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '"' || c == '\\' {
				dst = append(dst, '\\')
			}
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
