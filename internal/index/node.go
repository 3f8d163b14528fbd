package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Node encodings. Every tree node occupies the body of one txn cell (the
// cell's leading 8-byte version/lock word belongs to the txn layer and is
// the node's seqlock). All nodes share a 7-byte header plus two fence
// keys bounding the node's key range:
//
//	[0]    kind (1 leaf, 2 inner, 3 meta; sidecars are raw bloom cells)
//	[1,3)  count   uint16 (leaf entries / inner separators)
//	[3,5)  loLen   uint16
//	[5,7)  hiLen   uint16
//	[7,…)  lo bytes, hi bytes
//
// lo is the inclusive lower bound ("" = -inf); hi the exclusive upper
// bound (length 0 = +inf; the API rejects empty keys so "" is never a
// real bound). Fences only ever narrow — splits move a node's upper keys
// right and shrink hi — and a cell allocated as a leaf stays a leaf
// forever (no merges, no frees), which is what makes speculative
// cache-guided traversal sound: a stale route can direct a client to the
// wrong node, but the fence check on the node it lands on always exposes
// the lie.
//
// After the fences:
//
//	leaf:   per entry, sorted by key: kLen u16, vLen u16, key, value
//	inner:  child0 u32, then per separator, sorted: sLen u16, child u32,
//	        sep bytes — children[i+1] covers keys >= sep[i]
//	meta:   root u32, height u16, nextCell u32 (cell 0 only)
const (
	kindFree  = 0
	kindLeaf  = 1
	kindInner = 2
	kindMeta  = 3
)

const nodeHeader = 7

// node is a decoded tree node. Leaves fill keys/vals; inners fill
// children/seps (len(children) == len(seps)+1).
type node struct {
	kind     byte
	lo, hi   []byte // hi nil/empty = +inf
	keys     [][]byte
	vals     [][]byte
	children []uint32
	seps     [][]byte
}

// meta is the decoded root cell.
type meta struct {
	root     uint32
	height   uint16 // inner levels above the leaves (0 = root is a leaf)
	nextCell uint32
}

// hiInf reports whether the node's upper fence is +inf.
func (n *node) hiInf() bool { return len(n.hi) == 0 }

// covers reports whether key falls inside the node's fences.
func (n *node) covers(key []byte) bool {
	return bytes.Compare(n.lo, key) <= 0 && (n.hiInf() || bytes.Compare(key, n.hi) < 0)
}

// search locates key in a leaf: the entry index when found, else the
// insertion point.
func (n *node) search(key []byte) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
	return i, i < len(n.keys) && bytes.Equal(n.keys[i], key)
}

// childFor routes key one level down an inner node.
func (n *node) childFor(key []byte) uint32 {
	i := sort.Search(len(n.seps), func(i int) bool { return bytes.Compare(n.seps[i], key) > 0 })
	return n.children[i]
}

// encodedLen returns the node's on-cell size.
func (n *node) encodedLen() int {
	sz := nodeHeader + len(n.lo) + len(n.hi)
	switch n.kind {
	case kindLeaf:
		for i, k := range n.keys {
			sz += 4 + len(k) + len(n.vals[i])
		}
	case kindInner:
		sz += 4
		for _, s := range n.seps {
			sz += 6 + len(s)
		}
	}
	return sz
}

// encode renders the node into a fresh body slice.
func (n *node) encode() []byte {
	b := make([]byte, n.encodedLen())
	b[0] = n.kind
	count := len(n.keys)
	if n.kind == kindInner {
		count = len(n.seps)
	}
	binary.LittleEndian.PutUint16(b[1:], uint16(count))
	binary.LittleEndian.PutUint16(b[3:], uint16(len(n.lo)))
	binary.LittleEndian.PutUint16(b[5:], uint16(len(n.hi)))
	off := nodeHeader
	off += copy(b[off:], n.lo)
	off += copy(b[off:], n.hi)
	switch n.kind {
	case kindLeaf:
		for i, k := range n.keys {
			binary.LittleEndian.PutUint16(b[off:], uint16(len(k)))
			binary.LittleEndian.PutUint16(b[off+2:], uint16(len(n.vals[i])))
			off += 4
			off += copy(b[off:], k)
			off += copy(b[off:], n.vals[i])
		}
	case kindInner:
		binary.LittleEndian.PutUint32(b[off:], n.children[0])
		off += 4
		for i, s := range n.seps {
			binary.LittleEndian.PutUint16(b[off:], uint16(len(s)))
			binary.LittleEndian.PutUint32(b[off+2:], n.children[i+1])
			off += 6
			off += copy(b[off:], s)
		}
	}
	return b
}

// decodeNode parses a cell body. The returned node's slices are copies
// (cell bodies from ReadCell are reused scratch in callers).
func decodeNode(body []byte) (*node, error) {
	if len(body) < nodeHeader {
		return nil, fmt.Errorf("%w: short node (%d bytes)", ErrCorrupt, len(body))
	}
	n := &node{kind: body[0]}
	if n.kind != kindLeaf && n.kind != kindInner {
		return nil, fmt.Errorf("%w: node kind %d", ErrCorrupt, n.kind)
	}
	count := int(binary.LittleEndian.Uint16(body[1:]))
	loLen := int(binary.LittleEndian.Uint16(body[3:]))
	hiLen := int(binary.LittleEndian.Uint16(body[5:]))
	off := nodeHeader
	if off+loLen+hiLen > len(body) {
		return nil, fmt.Errorf("%w: truncated fences", ErrCorrupt)
	}
	n.lo = append([]byte(nil), body[off:off+loLen]...)
	off += loLen
	n.hi = append([]byte(nil), body[off:off+hiLen]...)
	off += hiLen
	switch n.kind {
	case kindLeaf:
		n.keys = make([][]byte, 0, count)
		n.vals = make([][]byte, 0, count)
		for i := 0; i < count; i++ {
			if off+4 > len(body) {
				return nil, fmt.Errorf("%w: truncated leaf entry %d", ErrCorrupt, i)
			}
			kl := int(binary.LittleEndian.Uint16(body[off:]))
			vl := int(binary.LittleEndian.Uint16(body[off+2:]))
			off += 4
			if off+kl+vl > len(body) {
				return nil, fmt.Errorf("%w: truncated leaf entry %d", ErrCorrupt, i)
			}
			n.keys = append(n.keys, append([]byte(nil), body[off:off+kl]...))
			off += kl
			n.vals = append(n.vals, append([]byte(nil), body[off:off+vl]...))
			off += vl
		}
	case kindInner:
		if off+4 > len(body) {
			return nil, fmt.Errorf("%w: truncated inner node", ErrCorrupt)
		}
		n.children = append(n.children, binary.LittleEndian.Uint32(body[off:]))
		off += 4
		n.seps = make([][]byte, 0, count)
		for i := 0; i < count; i++ {
			if off+6 > len(body) {
				return nil, fmt.Errorf("%w: truncated separator %d", ErrCorrupt, i)
			}
			sl := int(binary.LittleEndian.Uint16(body[off:]))
			child := binary.LittleEndian.Uint32(body[off+2:])
			off += 6
			if off+sl > len(body) {
				return nil, fmt.Errorf("%w: truncated separator %d", ErrCorrupt, i)
			}
			n.seps = append(n.seps, append([]byte(nil), body[off:off+sl]...))
			n.children = append(n.children, child)
			off += sl
		}
	}
	return n, nil
}

// Meta cell body: kind, then root u32, height u16, nextCell u32.
const metaLen = 1 + 4 + 2 + 4

func (m meta) encode() []byte {
	b := make([]byte, metaLen)
	b[0] = kindMeta
	binary.LittleEndian.PutUint32(b[1:], m.root)
	binary.LittleEndian.PutUint16(b[5:], m.height)
	binary.LittleEndian.PutUint32(b[7:], m.nextCell)
	return b
}

func decodeMeta(body []byte) (meta, error) {
	if len(body) < metaLen || body[0] != kindMeta {
		return meta{}, fmt.Errorf("%w: bad meta cell", ErrCorrupt)
	}
	return meta{
		root:     binary.LittleEndian.Uint32(body[1:]),
		height:   binary.LittleEndian.Uint16(body[5:]),
		nextCell: binary.LittleEndian.Uint32(body[7:]),
	}, nil
}

// insertEntry puts (key, val) into a leaf, replacing an existing entry.
func (n *node) insertEntry(key, val []byte) {
	i, found := n.search(key)
	if found {
		n.vals[i] = val
		return
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, nil)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = val
}

// removeEntry deletes key from a leaf; reports whether it was present.
func (n *node) removeEntry(key []byte) bool {
	i, found := n.search(key)
	if !found {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	return true
}

// splitLeaf halves a leaf by encoded size. The left half keeps the
// original cell; sep is the right half's first key and becomes the left's
// new hi and the right's lo.
func (n *node) splitLeaf() (left, right *node, sep []byte) {
	total := 0
	for i, k := range n.keys {
		total += 4 + len(k) + len(n.vals[i])
	}
	m, acc := 0, 0
	for m = 0; m < len(n.keys)-1; m++ {
		acc += 4 + len(n.keys[m]) + len(n.vals[m])
		if acc >= total/2 {
			m++
			break
		}
	}
	if m == 0 {
		m = 1
	}
	sep = n.keys[m]
	left = &node{kind: kindLeaf, lo: n.lo, hi: sep, keys: n.keys[:m], vals: n.vals[:m]}
	right = &node{kind: kindLeaf, lo: sep, hi: n.hi, keys: n.keys[m:], vals: n.vals[m:]}
	return left, right, sep
}

// splitInner halves an inner node, promoting the middle separator: the
// promoted key moves up to the parent and neither half keeps it.
func (n *node) splitInner() (left, right *node, promoted []byte) {
	m := len(n.seps) / 2
	promoted = n.seps[m]
	left = &node{kind: kindInner, lo: n.lo, hi: promoted,
		seps: n.seps[:m], children: n.children[:m+1]}
	right = &node{kind: kindInner, lo: promoted, hi: n.hi,
		seps: n.seps[m+1:], children: n.children[m+1:]}
	return left, right, promoted
}

// insertSep adds (sep -> right child) into an inner node, keeping
// separators sorted. The child that previously covered sep's range keeps
// the left half; right takes over from sep.
func (n *node) insertSep(sep []byte, right uint32) {
	i := sort.Search(len(n.seps), func(i int) bool { return bytes.Compare(n.seps[i], sep) >= 0 })
	n.seps = append(n.seps, nil)
	copy(n.seps[i+1:], n.seps[i:])
	n.seps[i] = sep
	n.children = append(n.children, 0)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}
