// Package ipaddr implements IPv4 address and prefix arithmetic plus a
// sequential allocator. The simulator assigns every autonomous system a
// set of prefixes and carves host addresses and sub-prefixes out of them,
// mirroring how the paper's analysis maps observed public IPs back to
// prefixes such as Singtel's 202.166.126.0/24.
package ipaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address as a host-order uint32.
type Addr uint32

// MustParse parses a dotted-quad IPv4 address and panics on error.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Parse parses a dotted-quad IPv4 address: exactly four octets of one to
// three decimal digits, each at most 255 and without a leading zero,
// separated by dots. Signs, spaces and empty octets are errors. It scans
// s in place — a string, or the bytes of a payload being decoded — and
// allocates only to report an error.
func Parse[T string | []byte](s T) (Addr, error) {
	var v uint32
	octets, digits, n := 0, 0, 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] >= '0' && s[i] <= '9' {
			if digits == 1 && n == 0 || digits == 3 {
				return 0, fmt.Errorf("ipaddr: bad octet in %q (leading zero or too long)", s)
			}
			n = n*10 + int(s[i]-'0')
			digits++
			continue
		}
		// An octet ends here, at a dot or at the end of s.
		if i < len(s) && s[i] != '.' || digits == 0 || n > 255 || octets == 4 {
			return 0, fmt.Errorf("ipaddr: %q is not a dotted quad of octets 0-255", s)
		}
		v = v<<8 | uint32(n)
		octets, digits, n = octets+1, 0, 0
	}
	if octets != 4 {
		return 0, fmt.Errorf("ipaddr: %q is not dotted-quad", s)
	}
	return Addr(v), nil
}

// String renders the address as a dotted quad.
func (a Addr) String() string {
	var buf [15]byte // "255.255.255.255"
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the dotted quad to b and returns the extended slice.
func (a Addr) AppendTo(b []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(a>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// IsPrivate reports whether the address falls in RFC 1918 or CGN
// (RFC 6598, 100.64/10) space. The tomography demarcation step — "first
// public IP marks the PGW" — is built directly on this predicate.
func (a Addr) IsPrivate() bool {
	switch {
	case a>>24 == 10: // 10.0.0.0/8
		return true
	case a>>20 == 0xAC1: // 172.16.0.0/12
		return true
	case a>>16 == 0xC0A8: // 192.168.0.0/16
		return true
	case a>>22 == 0x191: // 100.64.0.0/10 (CGN)
		return true
	}
	return false
}

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Base Addr
	Bits int // prefix length, 0..32
}

// MustParsePrefix parses CIDR notation and panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation like "202.166.126.0/24".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipaddr: %q missing /bits", s)
	}
	a, err := Parse(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipaddr: bad prefix length in %q", s)
	}
	p := Prefix{Base: a, Bits: bits}
	if p.Base != p.masked() {
		return Prefix{}, fmt.Errorf("ipaddr: %q has host bits set", s)
	}
	return p, nil
}

func (p Prefix) masked() Addr {
	if p.Bits == 0 {
		return 0
	}
	mask := ^uint32(0) << (32 - p.Bits)
	return Addr(uint32(p.Base) & mask)
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Base, p.Bits) }

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 { return 1 << (32 - p.Bits) }

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	if p.Bits == 0 {
		return true
	}
	mask := ^uint32(0) << (32 - p.Bits)
	return uint32(a)&mask == uint32(p.Base)&mask
}

// Nth returns the i-th address inside the prefix.
// It panics if i is out of range.
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.Size() {
		panic(fmt.Sprintf("ipaddr: index %d out of %s", i, p))
	}
	return Addr(uint32(p.Base) + uint32(i))
}

// Allocator hands out host addresses and aligned sub-prefixes from a
// parent prefix, in order, never twice.
type Allocator struct {
	parent Prefix
	next   uint64 // offset of the next free address
}

// NewAllocator returns an allocator over the given parent prefix.
// Allocation starts at .1 (the network address is skipped) for /31 and
// wider blocks.
func NewAllocator(parent Prefix) *Allocator {
	start := uint64(0)
	if parent.Bits < 31 {
		start = 1
	}
	return &Allocator{parent: parent, next: start}
}

// NextAddr allocates the next free host address.
func (al *Allocator) NextAddr() (Addr, error) {
	if al.next >= al.parent.Size() {
		return 0, fmt.Errorf("ipaddr: %s exhausted", al.parent)
	}
	a := al.parent.Nth(al.next)
	al.next++
	return a, nil
}

// MustNextAddr is NextAddr but panics on exhaustion, for static world
// construction.
func (al *Allocator) MustNextAddr() Addr {
	a, err := al.NextAddr()
	if err != nil {
		panic(err)
	}
	return a
}

// NextPrefix allocates the next aligned sub-prefix of the given length.
func (al *Allocator) NextPrefix(bits int) (Prefix, error) {
	if bits < al.parent.Bits || bits > 32 {
		return Prefix{}, fmt.Errorf("ipaddr: /%d not inside %s", bits, al.parent)
	}
	size := uint64(1) << (32 - bits)
	// Align the cursor up to the sub-prefix boundary.
	aligned := (al.next + size - 1) / size * size
	if aligned+size > al.parent.Size() {
		return Prefix{}, fmt.Errorf("ipaddr: %s exhausted for /%d", al.parent, bits)
	}
	al.next = aligned + size
	return Prefix{Base: al.parent.Nth(aligned), Bits: bits}, nil
}
