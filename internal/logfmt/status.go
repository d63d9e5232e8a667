package logfmt

import "strconv"

// Status codes that appear in the paper's tables. The generator and the
// report renderer share this registry so tables carry the same labels the
// paper prints, e.g. "200 (OK)".
const (
	StatusOK                  = 200
	StatusNoContent           = 204
	StatusFound               = 302
	StatusNotModified         = 304
	StatusBadRequest          = 400
	StatusForbidden           = 403
	StatusNotFound            = 404
	StatusInternalServerError = 500
)

// statusNames maps the codes used by the evaluation to the human-readable
// names the paper prints next to them.
var statusNames = map[int]string{
	StatusOK:                  "OK",
	StatusNoContent:           "No content",
	StatusFound:               "Found",
	StatusNotModified:         "Not modified",
	StatusBadRequest:          "Bad request",
	StatusForbidden:           "Forbidden",
	StatusNotFound:            "Not found",
	StatusInternalServerError: "Internal Server Error",
	201:                       "Created",
	206:                       "Partial content",
	301:                       "Moved permanently",
	401:                       "Unauthorized",
	405:                       "Method not allowed",
	429:                       "Too many requests",
	502:                       "Bad gateway",
	503:                       "Service unavailable",
}

// StatusLabel renders a status code the way the paper's tables do:
// "200 (OK)". Unknown codes render as the bare number.
func StatusLabel(code int) string {
	name, ok := statusNames[code]
	if !ok {
		return strconv.Itoa(code)
	}
	return strconv.Itoa(code) + " (" + name + ")"
}
