package fib

import (
	"math/bits"
	"net/netip"

	"repro/internal/core"
)

// Trie is a path-compressed binary trie over IPv4 prefixes, holding one
// value of type V per prefix inline in its node. It is the one
// longest-prefix-match container of the repository: Table stores routes
// in it and the BGP RIB stores its per-prefix route state in it.
//
// Pre-order visitation is address-ascending, then length-ascending
// order, so ordered walks need no sort pass. A value's address is
// stable from insertion until its prefix is removed: nodes are split
// and spliced around it, never moved. Prefixes must be IPv4; the trie
// is not safe for concurrent use.
type Trie[V any] struct {
	// root is the synthetic 0/0 node; a real 0.0.0.0/0 entry, if
	// inserted, lives in it. Path compression never splits it.
	root node[V]
	n    int // nodes holding an entry
}

// node is one trie node. Junction nodes created by path compression
// hold no entry (set is false, val is zero).
type node[V any] struct {
	addr  uint32 // key bits, zero below len
	len   uint8  // prefix length, 0..32
	set   bool
	child [2]*node[V]
	val   V
}

// Len reports the number of prefixes held.
func (t *Trie[V]) Len() int { return t.n }

// key converts a prefix to trie key form.
func key(p netip.Prefix) (uint32, uint8) {
	return core.IPv4ToUint32(p.Masked().Addr()), uint8(p.Bits())
}

// Insert finds or creates the entry for p and returns a pointer to its
// value, zero if the prefix is new.
func (t *Trie[V]) Insert(p netip.Prefix) *V {
	addr, length := key(p)
	n := &t.root
	for {
		// How much of the key agrees with this node's key?
		cl := commonLen(addr, n.addr, min(length, n.len))
		if cl < n.len {
			// Split: a junction at the common length takes over n's
			// position; n descends under it.
			junction := &node[V]{addr: addr & maskBits(cl), len: cl}
			t.replaceChild(n, junction)
			junction.child[bitAt(n.addr, cl)] = n
			if cl == length {
				// The new prefix IS the junction point.
				return t.claim(junction)
			}
			leaf := &node[V]{addr: addr, len: length}
			junction.child[bitAt(addr, cl)] = leaf
			return t.claim(leaf)
		}
		// cl == n.len: the node's key is a prefix of ours.
		if length == n.len {
			return t.claim(n)
		}
		b := bitAt(addr, n.len)
		if n.child[b] == nil {
			leaf := &node[V]{addr: addr, len: length}
			n.child[b] = leaf
			return t.claim(leaf)
		}
		n = n.child[b]
	}
}

// claim marks n as holding an entry and returns its value.
func (t *Trie[V]) claim(n *node[V]) *V {
	if !n.set {
		n.set = true
		t.n++
	}
	return &n.val
}

// replaceChild swaps repl in for old in old's parent slot. Only
// non-root nodes are ever replaced, so the parent exists.
func (t *Trie[V]) replaceChild(old, repl *node[V]) {
	p := &t.root
	for {
		b := bitAt(old.addr, p.len)
		if p.child[b] == old {
			p.child[b] = repl
			return
		}
		p = p.child[b]
	}
}

// Lookup returns the value held for exactly p, or nil.
func (t *Trie[V]) Lookup(p netip.Prefix) *V {
	addr, length := key(p)
	n := &t.root
	for n != nil && n.len <= length && n.addr == addr&maskBits(n.len) {
		if n.len == length {
			if !n.set {
				return nil
			}
			return &n.val
		}
		n = n.child[bitAt(addr, n.len)]
	}
	return nil
}

// Remove deletes the entry for p, pruning emptied nodes and splicing
// out single-child junctions. It reports whether p was present.
func (t *Trie[V]) Remove(p netip.Prefix) bool {
	addr, length := key(p)
	// Walk down recording the path for pruning on the way back.
	var path [33]*node[V]
	depth := 0
	n := &t.root
	for n.len != length {
		path[depth] = n
		depth++
		n = n.child[bitAt(addr, n.len)]
		if n == nil || n.len > length || n.addr != addr&maskBits(n.len) {
			return false
		}
	}
	if !n.set {
		return false
	}
	var zero V
	n.set, n.val = false, zero
	t.n--
	// Prune upward: a node with no entry and at most one child either
	// vanishes (no children) or is replaced by its child. The root
	// stays.
	for ; depth > 0 && !n.set; depth-- {
		if n.child[0] != nil && n.child[1] != nil {
			break
		}
		only := n.child[0]
		if only == nil {
			only = n.child[1]
		}
		parent := path[depth-1]
		parent.child[bitAt(n.addr, parent.len)] = only // may be nil
		n = parent
	}
	return true
}

// LPM returns the longest prefix containing addr whose value accept
// approves (a nil accept approves every value) and that value, or a nil
// value if there is none.
func (t *Trie[V]) LPM(addr netip.Addr, accept func(*V) bool) (netip.Prefix, *V) {
	a := core.IPv4ToUint32(addr)
	var best *node[V]
	n := &t.root
	for n != nil && n.addr == a&maskBits(n.len) {
		if n.set && (accept == nil || accept(&n.val)) {
			best = n
		}
		if n.len == 32 {
			break
		}
		n = n.child[bitAt(a, n.len)]
	}
	if best == nil {
		return netip.Prefix{}, nil
	}
	return best.prefix(), &best.val
}

// Walk visits every entry in address-then-length order; returning
// false stops the walk. visit must not insert or remove prefixes.
func (t *Trie[V]) Walk(visit func(netip.Prefix, *V) bool) {
	t.root.walk(visit)
}

func (n *node[V]) walk(visit func(netip.Prefix, *V) bool) bool {
	if n == nil {
		return true
	}
	// Pre-order: this node's key sorts before every descendant's (same
	// leading bits, fewer length bits) and child[0]'s subtree before
	// child[1]'s (next bit 0 < 1).
	if n.set && !visit(n.prefix(), &n.val) {
		return false
	}
	return n.child[0].walk(visit) && n.child[1].walk(visit)
}

// prefix returns n's key as a prefix.
func (n *node[V]) prefix() netip.Prefix {
	return netip.PrefixFrom(core.IPv4FromUint32(n.addr), int(n.len))
}

// bitAt extracts bit i (0 = most significant) of addr.
func bitAt(addr uint32, i uint8) int {
	return int(addr>>(31-i)) & 1
}

// commonLen is the length of the longest common prefix of a and b,
// capped at limit.
func commonLen(a, b uint32, limit uint8) uint8 {
	return min(uint8(bits.LeadingZeros32(a^b)), limit)
}

// maskBits is the netmask with the top n bits set (a shift by 32
// yields 0, the /0 mask).
func maskBits(n uint8) uint32 { return ^uint32(0) << (32 - n) }
