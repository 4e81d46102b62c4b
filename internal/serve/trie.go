package serve

import "unsafe"

// trie is a persistent map from job ID to V: a 32-way radix tree over the
// ID's bits, as tall as its largest key needs, so dense, strided and sparse
// IDs all cost log₃₂(max ID) levels. fork starts a version over its parent's
// nodes and set copies the path to the slot it writes, each node at most once
// per version: a node carries the generation that allocated it, a fork's
// generation is above every node it inherits, and only a node of the writer's
// own generation is written in place. One goroutine writes a version, between
// its fork and its publication; from then on it is read-only, which is what
// lets readers walk it without locks. Keys are never deleted. A nil *trie is
// empty, and the zero trie is an empty version ready for set.
//
// The leaves (shift 0) hold the values and the branches above them the
// children, each node only the array it uses: for an 8-byte V both are 288-B
// objects, the size of one path copy.
type trie[V any] struct {
	root   unsafe.Pointer // a *trieLeaf[V] when shift is 0, else a *trieBranch
	shift  uint           // bit offset of the root's digit; 0 when the root is a leaf
	n      int            // keys held
	gen    uint64         // this version's generation
	copied int            // nodes this version allocated: the cost of deriving it
}

const (
	trieBits = 5
	trieFan  = 1 << trieBits
	trieTop  = 60 // the root shift at which all 64 key bits are covered
)

// trieBranch is a node above the leaves. Its children are untyped because
// their type follows from the level, which the walk knows: branches below a
// branch at shift s > trieBits, leaves below one at trieBits.
type trieBranch struct {
	gen  uint64
	kids [trieFan]unsafe.Pointer
}

// trieLeaf holds the values of 32 consecutive keys.
type trieLeaf[V any] struct {
	gen  uint64
	has  uint32 // which vals are present
	vals [trieFan]V
}

// fork returns a new version holding t's contents, sharing every node.
func (t *trie[V]) fork() trie[V] {
	if t == nil {
		return trie[V]{}
	}
	return trie[V]{root: t.root, shift: t.shift, n: t.n, gen: t.gen + 1}
}

// ownBranch makes *p a branch this version may write: the branch itself
// when this version allocated it, otherwise a copy of it (or a fresh one for
// nil).
func (t *trie[V]) ownBranch(p *unsafe.Pointer) *trieBranch {
	n := (*trieBranch)(*p)
	if n != nil && n.gen == t.gen {
		return n
	}
	c := new(trieBranch)
	if n != nil {
		*c = *n
	}
	c.gen = t.gen
	t.copied++
	*p = unsafe.Pointer(c)
	return c
}

// ownLeaf is ownBranch for a leaf.
func (t *trie[V]) ownLeaf(p *unsafe.Pointer) *trieLeaf[V] {
	n := (*trieLeaf[V])(*p)
	if n != nil && n.gen == t.gen {
		return n
	}
	c := new(trieLeaf[V])
	if n != nil {
		*c = *n
	}
	c.gen = t.gen
	t.copied++
	*p = unsafe.Pointer(c)
	return c
}

// set maps id to v in this version, in O(height) time and bytes.
func (t *trie[V]) set(id int, v V) {
	k := uint64(id)
	// Grow until the root's digit and those below it hold all of k's bits
	// (shifting past the word's width yields zero, which ends it at trieTop).
	for ; k>>(t.shift+trieBits) != 0; t.shift += trieBits {
		if old := t.root; old != nil {
			t.root = nil
			t.ownBranch(&t.root).kids[0] = old
		}
	}
	p := &t.root
	for s := t.shift; s > 0; s -= trieBits {
		p = &t.ownBranch(p).kids[k>>s%trieFan]
	}
	n, i := t.ownLeaf(p), k%trieFan
	if n.has&(1<<i) == 0 {
		n.has |= 1 << i
		t.n++
	}
	n.vals[i] = v
}

// at returns the slot holding id's value, nil when id is absent. The slot
// belongs to this version's leaf, which a published version never writes
// again, so a reader may keep the pointer for as long as it likes.
func (t *trie[V]) at(id int) *V {
	k := uint64(id)
	if t == nil || k>>(t.shift+trieBits) != 0 {
		return nil
	}
	n := t.root
	for s := t.shift; n != nil && s > 0; s -= trieBits {
		n = (*trieBranch)(n).kids[k>>s%trieFan]
	}
	if l := (*trieLeaf[V])(n); l != nil && l.has&(1<<(k%trieFan)) != 0 {
		return &l.vals[k%trieFan]
	}
	return nil
}

// get returns the value stored for id.
func (t *trie[V]) get(id int) (v V, ok bool) {
	if p := t.at(id); p != nil {
		return *p, true
	}
	return v, false
}

// ascend calls fn for every pair in ascending ID order until it returns false.
func (t *trie[V]) ascend(fn func(id int, v V) bool) {
	if t != nil {
		walk(t.root, t.shift, 0, fn)
	}
}

// walk visits the node n at shift and everything below it.
func walk[V any](n unsafe.Pointer, shift uint, prefix uint64, fn func(int, V) bool) bool {
	for j := uint64(0); n != nil && j < trieFan; j++ {
		i := j
		if shift == trieTop {
			// The top digit holds the sign bit: slots 8–15 are the negative
			// IDs and come first; 16–31 are beyond 64 bits and stay empty.
			i = (j + 8) % trieFan
		}
		if shift == 0 {
			if l := (*trieLeaf[V])(n); l.has&(1<<i) != 0 && !fn(int(prefix|i), l.vals[i]) {
				return false
			}
		} else if !walk((*trieBranch)(n).kids[i], shift-trieBits, prefix|i<<shift, fn) {
			return false
		}
	}
	return true
}
