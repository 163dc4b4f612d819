package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Feed-body bound: a canonical line is at most 20 digits plus a comma, so
// feedBytesPerLine bytes per admissible line and feedEnvelope bytes for
// the object around them hold any canonical batch the tenant's queue
// could accept. A body past the bound is refused with a 413 before any
// of it is decoded.
const (
	feedBytesPerLine = 24
	feedEnvelope     = 4096
)

// maxRegisterBody bounds a POST /tenants body; a registration is a few
// hundred bytes.
const maxRegisterBody = 64 << 10

// feedBodyLimit is the largest feed body, in bytes, a tenant whose queue
// holds maxQueued entries accepts under a global admission budget of
// budget entries. A batch larger than a positive budget can never be
// admitted, so the budget caps the bound too; a negative budget (no
// global bound) leaves it to maxQueued.
func feedBodyLimit(maxQueued, budget int) int64 {
	if budget > 0 {
		maxQueued = min(maxQueued, budget)
	}
	n := int64(max(maxQueued, 0))
	if n > (math.MaxInt64-feedEnvelope)/feedBytesPerLine {
		return math.MaxInt64
	}
	return feedBytesPerLine*n + feedEnvelope
}

// feedScratch is one request's decode buffers, recycled through
// feedScratches: the raw body and the decoded lines.
type feedScratch struct {
	body  bytes.Buffer
	lines []uint64
}

var feedScratches = sync.Pool{New: func() any { return new(feedScratch) }}

// decodeFeed reads r to EOF and decodes it as a FeedRequest, accepting
// and rejecting exactly the bodies json.NewDecoder(r).Decode does, with
// the same values and errors. The canonical shape
// {"lines":[u64,...],"instructions":u64} (keys in either order, JSON
// whitespace anywhere) is parsed in one pass into s.lines; any other body
// is handed to encoding/json over the same bytes. On the fast path the
// returned Lines alias s.lines, so they are valid only until s is reused.
func decodeFeed(r io.Reader, s *feedScratch) (FeedRequest, error) {
	s.body.Reset()
	if _, err := s.body.ReadFrom(r); err != nil {
		return FeedRequest{}, err
	}
	b := s.body.Bytes()
	req, lines, ok := parseFeed(b, s.lines[:0])
	s.lines = lines
	if ok {
		return req, nil
	}
	// Decoder, not Unmarshal: the decoder stops at the end of the first
	// value, so trailing bytes after the object are accepted as before.
	var std FeedRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&std)
	return std, err
}

// parseFeed parses b if it is a canonical FeedRequest, appending the
// lines to lines (returned, possibly grown, either way). ok is false for
// every body outside the canonical subset — null, keys that are escaped,
// differently cased, unknown or repeated, numbers with a sign, fraction,
// exponent, leading zero or past MaxUint64, syntax errors — leaving the
// verdict to encoding/json. Like json.Decoder, it stops at the object's
// closing brace and ignores whatever follows.
func parseFeed(b []byte, lines []uint64) (req FeedRequest, _ []uint64, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return req, lines, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, lines, true
	}
	var seenLines, seenInstr bool
	for {
		switch {
		case !seenLines && hasKey(b[i:], `"lines"`):
			seenLines = true
			if i, ok = colon(b, i+len(`"lines"`)); !ok {
				return req, lines, false
			}
			if i >= len(b) || b[i] != '[' {
				return req, lines, false
			}
			if i, lines, ok = parseLines(b, i+1, lines); !ok {
				return req, lines, false
			}
			req.Lines = lines
		case !seenInstr && hasKey(b[i:], `"instructions"`):
			seenInstr = true
			if i, ok = colon(b, i+len(`"instructions"`)); !ok {
				return req, lines, false
			}
			if req.Instructions, i, ok = parseUint(b, i); !ok {
				return req, lines, false
			}
		default:
			return req, lines, false
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return req, lines, false
		}
		switch b[i] {
		case '}':
			return req, lines, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return req, lines, false
		}
	}
}

// parseLines parses the elements of a uint64 array whose '[' ends just
// before b[i], appending them to lines; it returns the index past ']'.
func parseLines(b []byte, i int, lines []uint64) (int, []uint64, bool) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == ']' {
		return i + 1, lines, true
	}
	for {
		v, j, ok := parseUint(b, i)
		if !ok {
			return i, lines, false
		}
		lines = append(lines, v)
		i = skipSpace(b, j)
		if i >= len(b) {
			return i, lines, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1, lines, true
		default:
			return i, lines, false
		}
	}
}

// parseUint parses a JSON number at b[i] that is a uint64 without sign,
// fraction, exponent or leading zero, returning it and the index past
// its last digit.
func parseUint(b []byte, i int) (uint64, int, bool) {
	const cutoff, lastDigit = math.MaxUint64 / 10, math.MaxUint64 % 10
	var v uint64
	j := i
	for ; j < len(b); j++ {
		d := b[j] - '0'
		if d > 9 {
			break
		}
		if v > cutoff || v == cutoff && uint64(d) > lastDigit {
			return 0, i, false
		}
		v = v*10 + uint64(d)
	}
	if j == i || b[i] == '0' && j > i+1 {
		return 0, i, false
	}
	return v, j, true
}

// hasKey reports whether b starts with the quoted key, byte for byte.
func hasKey(b []byte, key string) bool {
	return len(b) >= len(key) && string(b[:len(key)]) == key
}

// colon skips the whitespace and ':' after an object key, and the
// whitespace after that.
func colon(b []byte, i int) (int, bool) {
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != ':' {
		return i, false
	}
	return skipSpace(b, i+1), true
}

// skipSpace returns the index of the first non-whitespace byte at or
// after b[i], using JSON's four whitespace characters.
func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i
		}
	}
	return i
}
