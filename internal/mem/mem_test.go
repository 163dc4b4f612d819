package mem

import (
	"testing"
	"testing/quick"
)

func TestConstantsConsistent(t *testing.T) {
	if 1<<LineShift != LineSize {
		t.Fatalf("LineShift %d inconsistent with LineSize %d", LineShift, LineSize)
	}
	if 1<<PageShift != PageSize {
		t.Fatalf("PageShift %d inconsistent with PageSize %d", PageShift, PageSize)
	}
	if LinesPerPage != PageSize/LineSize {
		t.Fatalf("LinesPerPage = %d", LinesPerPage)
	}
}

func TestLineOfAndBack(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		l := LineOf(addr)
		base := AddrOfLine(l)
		// The line's base address must cover addr within one line.
		return base <= addr && uint64(addr-base) < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageLineGeometry(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		l := LineOf(addr)
		if Page(addr>>PageShift) != PageOfLine(l) {
			return false
		}
		in := LineInPage(l)
		return in >= 0 && in < LinesPerPage
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineInPageWalksSequentially(t *testing.T) {
	base := Addr(7 * PageSize)
	for i := 0; i < LinesPerPage; i++ {
		l := LineOf(base + Addr(i*LineSize))
		if LineInPage(l) != i {
			t.Fatalf("line %d of page reports index %d", i, LineInPage(l))
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Load: "load", Store: "store", IFetch: "ifetch", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
