package serve

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
type trie[V any] struct {
	root   *trieNode[V]
	shift  uint   // bit offset of the root's digit; 0 when the root is a leaf
	n      int    // keys held
	gen    uint64 // this version's generation
	copied int    // nodes this version allocated: the cost of deriving it
}

const (
	trieBits = 5
	trieFan  = 1 << trieBits
	trieTop  = 60 // the root shift at which all 64 key bits are covered
)

// trieNode is a leaf (vals, has) at shift 0 and a branch (kids) above it.
type trieNode[V any] struct {
	gen  uint64
	has  uint32 // which vals are present
	kids [trieFan]*trieNode[V]
	vals [trieFan]V
}

// fork returns a new version holding t's contents, sharing every node.
func (t *trie[V]) fork() trie[V] {
	if t == nil {
		return trie[V]{}
	}
	return trie[V]{root: t.root, shift: t.shift, n: t.n, gen: t.gen + 1}
}

// own makes *p a node this version may write: the node itself when this
// version allocated it, otherwise a copy of it (or a fresh node for nil).
func (t *trie[V]) own(p **trieNode[V]) *trieNode[V] {
	if n := *p; n != nil && n.gen == t.gen {
		return n
	}
	c := new(trieNode[V])
	if *p != nil {
		*c = **p
	}
	c.gen = t.gen
	t.copied++
	*p = c
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
			t.own(&t.root).kids[0] = old
		}
	}
	p := &t.root
	for s := t.shift; ; s -= trieBits {
		n, i := t.own(p), k>>s%trieFan
		if s == 0 {
			if n.has&(1<<i) == 0 {
				n.has |= 1 << i
				t.n++
			}
			n.vals[i] = v
			return
		}
		p = &n.kids[i]
	}
}

// get returns the value stored for id.
func (t *trie[V]) get(id int) (v V, ok bool) {
	k := uint64(id)
	if t == nil || k>>(t.shift+trieBits) != 0 {
		return v, false
	}
	n := t.root
	for s := t.shift; n != nil && s > 0; s -= trieBits {
		n = n.kids[k>>s%trieFan]
	}
	if n == nil || n.has&(1<<(k%trieFan)) == 0 {
		return v, false
	}
	return n.vals[k%trieFan], true
}

// ascend calls fn for every pair in ascending ID order until it returns false.
func (t *trie[V]) ascend(fn func(id int, v V) bool) {
	if t != nil {
		t.root.walk(t.shift, 0, fn)
	}
}

func (n *trieNode[V]) walk(shift uint, prefix uint64, fn func(int, V) bool) bool {
	for j := uint64(0); n != nil && j < trieFan; j++ {
		i := j
		if shift == trieTop {
			// The top digit holds the sign bit: slots 8–15 are the negative
			// IDs and come first; 16–31 are beyond 64 bits and stay empty.
			i = (j + 8) % trieFan
		}
		if shift == 0 {
			if n.has&(1<<i) != 0 && !fn(int(prefix|i), n.vals[i]) {
				return false
			}
		} else if !n.kids[i].walk(shift-trieBits, prefix|i<<shift, fn) {
			return false
		}
	}
	return true
}
