package ipaddr

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "202.166.126.0", "8.8.8.8", "100.64.0.1"} {
		a, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	for _, s := range []string{
		"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "-1.2.3.4", "a.b.c.d", "01.2.3.4", "1.2.3.4/24",
		// Empty octets, wherever they sit.
		".1.2.3", "1..2.3", "1.2.3.", "...", "1.2.3.4.",
		// Leading zeros and over-long or over-range octets.
		"00.0.0.0", "1.2.3.04", "1.2.3.0000", "1.2.3.256", "1.2.3.1000", "1.2.3.99999999999999999999",
		// Signs: strconv.Atoi let "+1" and "-0" through the old Parse.
		"+1.2.3.4", "1.+2.3.4", "-0.1.2.3", "1.2.3.-0",
		// Anything that is not a digit or a dot.
		" 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "1,2,3,4", "1.2.3.4e0", "0x1.2.3.4", "1_0.2.3.4", "١.2.3.4",
	} {
		if a, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %s, should fail", s, a)
		}
	}
}

// TestParseStringAllocs: rendering an address is the one allocation its
// string needs, appending it to a buffer with room needs none, and
// parsing a well-formed one — string or bytes — allocates nothing.
func TestParseStringAllocs(t *testing.T) {
	a := MustParse("202.166.126.4")
	if n := testing.AllocsPerRun(100, func() { _ = a.String() }); n > 1 {
		t.Errorf("String allocates %.0f times, want <= 1", n)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = a.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo allocates %.0f times, want 0", n)
	}
	if string(buf) != "202.166.126.4" {
		t.Errorf("AppendTo wrote %q", buf)
	}
	if n := testing.AllocsPerRun(100, func() { Parse("202.166.126.4") }); n != 0 {
		t.Errorf("Parse allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Parse(buf) }); n != 0 {
		t.Errorf("Parse([]byte) allocates %.0f times, want 0", n)
	}
}

// parseOld is the Parse this package had before it stopped splitting
// and Atoi-ing: the reference FuzzParse compares against.
func parseOld(s string) (Addr, bool) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, false
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, false
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), true
}

// FuzzParse holds the rewrite to the old implementation: on every input
// without a sign the two agree on accept/reject and on the value, a
// signed input is always rejected, whatever parses renders back to an
// address that parses to itself, and the bytes of s parse as s does.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "202.166.126.4", "1.2.3", "01.2.3.4",
		"1..2.3", "256.1.1.1", "+1.2.3.4", "-0.1.2.3", "1.2.3.4.5", "", "a.b.c.d", "1.2.3.0000"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s)
		if gotb, errb := Parse([]byte(s)); gotb != got || (errb == nil) != (err == nil) {
			t.Fatalf("Parse([]byte(%q)) = %s, %v; Parse(%q) = %s, %v", s, gotb, errb, s, got, err)
		}
		if strings.ContainsAny(s, "+-") {
			if err == nil {
				t.Fatalf("Parse(%q) = %s, want an error for a signed octet", s, got)
			}
			return
		}
		want, ok := parseOld(s)
		if (err == nil) != ok || got != want {
			t.Fatalf("Parse(%q) = %s, %v; the old Parse gave %s, ok=%v", s, got, err, want, ok)
		}
		if err != nil {
			return
		}
		if back, err := Parse(got.String()); err != nil || back != got {
			t.Fatalf("Parse(%q.String()) = %s, %v", got, back, err)
		}
		if got.String() != s {
			t.Fatalf("Parse accepted %q, a non-canonical form of %s", s, got)
		}
	})
}

func TestParseStringPropertyRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := Parse(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsPrivate(t *testing.T) {
	private := []string{"10.0.0.1", "10.255.255.255", "172.16.0.1", "172.31.255.254", "192.168.1.1", "100.64.0.1", "100.127.255.254"}
	public := []string{"8.8.8.8", "202.166.126.4", "172.15.0.1", "172.32.0.1", "100.63.255.255", "100.128.0.0", "192.167.1.1", "11.0.0.1"}
	for _, s := range private {
		if !MustParse(s).IsPrivate() {
			t.Errorf("%s should be private", s)
		}
	}
	for _, s := range public {
		if MustParse(s).IsPrivate() {
			t.Errorf("%s should be public", s)
		}
	}
}

func TestPrefixParse(t *testing.T) {
	p := MustParsePrefix("202.166.126.0/24")
	if p.Size() != 256 {
		t.Errorf("size = %d", p.Size())
	}
	if !p.Contains(MustParse("202.166.126.77")) {
		t.Error("should contain .77")
	}
	if p.Contains(MustParse("202.166.127.0")) {
		t.Error("should not contain next /24")
	}
	if p.String() != "202.166.126.0/24" {
		t.Errorf("String = %s", p.String())
	}
	if _, err := ParsePrefix("202.166.126.1/24"); err == nil {
		t.Error("host bits set should fail")
	}
	if _, err := ParsePrefix("1.2.3.0/33"); err == nil {
		t.Error("/33 should fail")
	}
	if _, err := ParsePrefix("1.2.3.0"); err == nil {
		t.Error("missing /bits should fail")
	}
}

func TestPrefixZeroBitsContainsAll(t *testing.T) {
	p := MustParsePrefix("0.0.0.0/0")
	f := func(v uint32) bool { return p.Contains(Addr(v)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorAddrs(t *testing.T) {
	al := NewAllocator(MustParsePrefix("192.0.2.0/29")) // 8 addrs, .1-.7 usable
	var got []string
	for {
		a, err := al.NextAddr()
		if err != nil {
			break
		}
		got = append(got, a.String())
	}
	if len(got) != 7 {
		t.Fatalf("allocated %d addrs, want 7", len(got))
	}
	if got[0] != "192.0.2.1" || got[6] != "192.0.2.7" {
		t.Errorf("range = %s..%s", got[0], got[6])
	}
	if _, err := al.NextAddr(); err == nil {
		t.Error("exhausted allocator should error")
	}
}

func TestAllocatorUniqueAddresses(t *testing.T) {
	parent := MustParsePrefix("10.0.0.0/22")
	al := NewAllocator(parent)
	seen := map[Addr]bool{}
	for i := 0; i < 1000; i++ {
		a := al.MustNextAddr()
		if seen[a] {
			t.Fatalf("duplicate allocation %s", a)
		}
		if !parent.Contains(a) {
			t.Fatalf("allocated %s outside parent", a)
		}
		seen[a] = true
	}
}

func TestAllocatorPrefixes(t *testing.T) {
	al := NewAllocator(MustParsePrefix("10.0.0.0/16"))
	p1, err1 := al.NextPrefix(24)
	p2, err2 := al.NextPrefix(24)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if p1.String() != "10.0.1.0/24" { // .0.0/24 skipped: cursor started at .1, aligned up
		t.Errorf("p1 = %s", p1)
	}
	if p2.String() != "10.0.2.0/24" {
		t.Errorf("p2 = %s", p2)
	}
	// Address allocation continues after the last prefix.
	a := al.MustNextAddr()
	if !a.IsPrivate() || p2.Contains(a) || p1.Contains(a) {
		t.Errorf("follow-up addr %s overlaps allocated prefixes", a)
	}
}

func TestAllocatorPrefixErrors(t *testing.T) {
	al := NewAllocator(MustParsePrefix("10.0.0.0/24"))
	if _, err := al.NextPrefix(16); err == nil {
		t.Error("wider-than-parent prefix should fail")
	}
	if _, err := al.NextPrefix(33); err == nil {
		t.Error("/33 should fail")
	}
	if _, err := al.NextPrefix(25); err != nil {
		t.Errorf("first /25: %v", err)
	}
	if _, err := al.NextPrefix(25); err == nil {
		t.Error("second /25 cannot fit (first consumed .128 after cursor alignment)")
	}
}

func TestNthPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range should panic")
		}
	}()
	MustParsePrefix("10.0.0.0/30").Nth(4)
}
