package service

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// stdDecode is the reference decoder: what the feed handler ran before
// decodeFeed, and what decodeFeed falls back to.
func stdDecode(body []byte) (FeedRequest, error) {
	var req FeedRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// canonicalBody is a json.Marshal-encoded FeedRequest of n synthetic
// lines.
func canonicalBody(tb testing.TB, seed int64, n int) []byte {
	tb.Helper()
	b, err := json.Marshal(FeedRequest{Lines: rawTrace(synthTrace(seed, n)), Instructions: 123_456_789})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// checkAgainstStd fails unless decodeFeed and encoding/json agree on
// body: the same error text, or the same lines and instructions.
func checkAgainstStd(t *testing.T, body []byte) {
	t.Helper()
	want, werr := stdDecode(body)
	s := feedScratches.Get().(*feedScratch)
	defer feedScratches.Put(s)
	got, err := decodeFeed(bytes.NewReader(body), s)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%q: decodeFeed error %v, encoding/json error %v", body, err, werr)
	case err != nil:
		if err.Error() != werr.Error() {
			t.Fatalf("%q: decodeFeed error %q, encoding/json error %q", body, err, werr)
		}
	case !slices.Equal(got.Lines, want.Lines) || got.Instructions != want.Instructions:
		t.Fatalf("%q: decodeFeed %+v, encoding/json %+v", body, got, want)
	}
}

// TestParseFeedCanonical pins that the bodies clients send take the
// one-pass path: json.Marshal output in either key order and with
// whitespace decodes without the fallback, to the marshalled values.
func TestParseFeedCanonical(t *testing.T) {
	lines := []uint64{0, 1, 9, 10, 4096, math.MaxUint64 / 10, math.MaxUint64}
	marshalled, err := json.Marshal(FeedRequest{Lines: lines, Instructions: math.MaxUint64})
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		string(marshalled),
		`{"instructions":18446744073709551615,"lines":[0,1,9,10,4096,1844674407370955161,18446744073709551615]}`,
		"\n{ \"lines\" : [ 0 , 1 ,9,\t10,\r\n4096 ,1844674407370955161, 18446744073709551615 ] ,\"instructions\":18446744073709551615 }\n",
	}
	for _, body := range bodies {
		req, _, ok := parseFeed([]byte(body), nil)
		if !ok {
			t.Errorf("%q: fell back to encoding/json", body)
			continue
		}
		if !slices.Equal(req.Lines, lines) || req.Instructions != math.MaxUint64 {
			t.Errorf("%q: parsed %+v", body, req)
		}
		checkAgainstStd(t, []byte(body))
	}
	for _, body := range []string{`{}`, ` { } `, `{"lines":[]}`, `{"instructions":0}`} {
		if _, _, ok := parseFeed([]byte(body), nil); !ok {
			t.Errorf("%q: fell back to encoding/json", body)
		}
	}
}

// TestDecodeFeedNoAllocs pins the one-pass path allocation-free once
// its scratch buffers have grown to the batch size.
func TestDecodeFeedNoAllocs(t *testing.T) {
	body := canonicalBody(t, 5, 4096)
	var s feedScratch
	var rd bytes.Reader
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if _, err := decodeFeed(&rd, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decodeFeed allocates %v times per canonical body", allocs)
	}
}

func TestFeedBodyLimit(t *testing.T) {
	for _, tc := range []struct {
		maxQueued, budget int
		want              int64
	}{
		{0, -1, 4096}, {-7, -1, 4096}, {64, -1, 24*64 + 4096},
		{DefaultMaxQueued, DefaultGlobalBudget, 24*DefaultMaxQueued + 4096},
		{math.MaxInt, -1, math.MaxInt64},
		// A positive budget caps the bound; a larger one leaves it.
		{64, 10, 24*10 + 4096}, {64, 1000, 24*64 + 4096},
		{math.MaxInt, DefaultGlobalBudget, 24*DefaultGlobalBudget + 4096},
	} {
		if got := feedBodyLimit(tc.maxQueued, tc.budget); got != tc.want {
			t.Errorf("feedBodyLimit(%d, %d) = %d, want %d", tc.maxQueued, tc.budget, got, tc.want)
		}
	}
}

// FuzzFeedDecode is the differential check of decodeFeed against
// encoding/json: on every input they must agree on the verdict, the
// error text, and the decoded lines and instructions. The seeds are the
// HTTP edge cases, uint64 boundary numbers and a canonical batch.
func FuzzFeedDecode(f *testing.F) {
	for _, req := range []FeedRequest{
		{},
		{Lines: []uint64{}},
		{Lines: []uint64{0}, Instructions: 1},
		{Lines: []uint64{1, 22, 333, math.MaxUint64}, Instructions: math.MaxUint64},
		{Lines: rawTrace(synthTrace(7, 16)), Instructions: 4096},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, tc := range feedBodyRejects {
		f.Add([]byte(tc.body))
	}
	for _, tc := range feedBodyAccepts {
		f.Add([]byte(tc.body))
	}
	for _, n := range []string{"18446744073709551615", "18446744073709551616", "18446744073709551620",
		"28446744073709551615", "184467440737095516150", "00", "-0", "1E2", "1.", "7 8"} {
		f.Add([]byte(`{"lines":[` + n + `],"instructions":` + n + `}`))
	}
	f.Add(canonicalBody(f, 3, 512))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstStd(t, body)
	})
}

var sinkFeed FeedRequest

// BenchmarkFeedDecode decodes canonical 4096-line feed bodies with the
// one-pass decoder and with encoding/json, the reference; ns/ref is the
// decode cost per fed reference.
func BenchmarkFeedDecode(b *testing.B) {
	const n = 4096
	body := canonicalBody(b, 11, n)
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/ref")
	}
	b.Run("decodeFeed", func(b *testing.B) {
		var s feedScratch
		var rd bytes.Reader
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			req, err := decodeFeed(&rd, &s)
			if err != nil {
				b.Fatal(err)
			}
			sinkFeed = req
		}
		report(b)
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := stdDecode(body)
			if err != nil {
				b.Fatal(err)
			}
			sinkFeed = req
		}
		report(b)
	})
}
