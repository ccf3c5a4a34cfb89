package interval

// Tree is an interval tree: a red-black tree keyed by (Start, End, ID) in
// which every node is augmented with the maximum End in its subtree
// (CLRS chapter 14, the structure the paper's Section 3.2.3 cites via
// reference [18]). Stabbing queries cost O(log n + k) and an insert
// O(log n). It serves Figure 16's list-versus-tree comparison, which
// inserts a region set once and then stabs it, so it has no delete.
type Tree struct {
	root *node
	nil_ *node            // sentinel leaf
	ids  map[int]struct{} // the ids present, for Insert's duplicate check
}

type color bool

const (
	red   color = false
	black color = true
)

type node struct {
	id         int
	start, end uint64
	max        uint64 // maximum end in this subtree
	c          color
	left       *node
	right      *node
	parent     *node
}

// NewTree returns an empty Tree.
func NewTree() *Tree {
	s := &node{c: black}
	s.left, s.right, s.parent = s, s, s
	return &Tree{root: s, nil_: s, ids: make(map[int]struct{})}
}

// Len returns the number of ranges in the tree.
func (t *Tree) Len() int { return len(t.ids) }

// less orders nodes by (start, end, id), giving the tree a deterministic
// shape independent of insertion order ties.
func less(a, b *node) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	if a.end != b.end {
		return a.end < b.end
	}
	return a.id < b.id
}

// Insert adds the range [start, end) under id, with List.Insert's
// contract.
func (t *Tree) Insert(id int, start, end uint64) bool {
	if start >= end {
		return false
	}
	if _, dup := t.ids[id]; dup {
		return false
	}
	z := &node{id: id, start: start, end: end, max: end, left: t.nil_, right: t.nil_, parent: t.nil_}
	t.ids[id] = struct{}{}

	// Ordinary BST insert, updating max on the way down.
	y := t.nil_
	x := t.root
	for x != t.nil_ {
		y = x
		if z.end > x.max {
			x.max = z.end
		}
		if less(z, x) {
			x = x.left
		} else {
			x = x.right
		}
	}
	z.parent = y
	switch {
	case y == t.nil_:
		t.root = z
	case less(z, y):
		y.left = z
	default:
		y.right = z
	}
	z.c = red
	t.insertFixup(z)
	return true
}

func (t *Tree) insertFixup(z *node) {
	for z.parent.c == red {
		if z.parent == z.parent.parent.left {
			u := z.parent.parent.right
			if u.c == red {
				z.parent.c = black
				u.c = black
				z.parent.parent.c = red
				z = z.parent.parent
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.c = black
				z.parent.parent.c = red
				t.rotateRight(z.parent.parent)
			}
		} else {
			u := z.parent.parent.left
			if u.c == red {
				z.parent.c = black
				u.c = black
				z.parent.parent.c = red
				z = z.parent.parent
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.c = black
				z.parent.parent.c = red
				t.rotateLeft(z.parent.parent)
			}
		}
	}
	t.root.c = black
}

// fixMax recomputes n.max from its interval and children.
func (t *Tree) fixMax(n *node) {
	if n == t.nil_ {
		return
	}
	m := n.end
	if n.left != t.nil_ && n.left.max > m {
		m = n.left.max
	}
	if n.right != t.nil_ && n.right.max > m {
		m = n.right.max
	}
	n.max = m
}

func (t *Tree) rotateLeft(x *node) {
	y := x.right
	x.right = y.left
	if y.left != t.nil_ {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nil_:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
	t.fixMax(x)
	t.fixMax(y)
}

func (t *Tree) rotateRight(x *node) {
	y := x.left
	x.left = y.right
	if y.right != t.nil_ {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nil_:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
	t.fixMax(x)
	t.fixMax(y)
}

// Stab calls visit for every range containing point, in key order. The
// walk prunes subtrees whose max end is at or below the point (nothing
// there can contain it) and right subtrees whose start keys already
// exceed the point. visit must not mutate the tree.
func (t *Tree) Stab(point uint64, visit func(id int)) {
	t.stab(t.root, point, visit)
}

func (t *Tree) stab(n *node, point uint64, visit func(id int)) {
	if n == t.nil_ || n.max <= point {
		return
	}
	t.stab(n.left, point, visit)
	if n.start <= point {
		if point < n.end {
			visit(n.id)
		}
		t.stab(n.right, point, visit)
	}
}

// checkInvariants validates red-black and max-augmentation invariants,
// returning the black height. Used by tests; not called in production paths.
func (t *Tree) checkInvariants() (blackHeight int, ok bool) {
	if t.root.c != black {
		return 0, false
	}
	return t.check(t.root)
}

func (t *Tree) check(n *node) (int, bool) {
	if n == t.nil_ {
		return 1, true
	}
	if n.c == red && (n.left.c == red || n.right.c == red) {
		return 0, false
	}
	lh, lok := t.check(n.left)
	rh, rok := t.check(n.right)
	if !lok || !rok || lh != rh {
		return 0, false
	}
	// BST order.
	if n.left != t.nil_ && !less(n.left, n) {
		return 0, false
	}
	if n.right != t.nil_ && less(n.right, n) {
		return 0, false
	}
	// Max augmentation.
	m := n.end
	if n.left != t.nil_ && n.left.max > m {
		m = n.left.max
	}
	if n.right != t.nil_ && n.right.max > m {
		m = n.right.max
	}
	if n.max != m {
		return 0, false
	}
	h := lh
	if n.c == black {
		h++
	}
	return h, true
}
