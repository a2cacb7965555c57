package cache

import (
	"fmt"

	"cache8t/internal/rng"
)

// PolicyKind selects a replacement policy.
type PolicyKind uint8

const (
	// LRU evicts the least recently used way (the paper's policy, §5.1).
	LRU PolicyKind = iota
	// FIFO evicts the oldest-filled way.
	FIFO
	// Random evicts a uniformly random way.
	Random
	// TreePLRU is the tree pseudo-LRU approximation common in hardware.
	TreePLRU
)

// String names the policy.
func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	case TreePLRU:
		return "TreePLRU"
	default:
		return fmt.Sprintf("PolicyKind(%d)", uint8(k))
	}
}

// ParsePolicy converts a name (as used on CLI flags) to a PolicyKind.
func ParsePolicy(name string) (PolicyKind, error) {
	switch name {
	case "lru", "LRU":
		return LRU, nil
	case "fifo", "FIFO":
		return FIFO, nil
	case "random", "Random":
		return Random, nil
	case "plru", "PLRU", "treeplru", "TreePLRU":
		return TreePLRU, nil
	default:
		return 0, fmt.Errorf("cache: unknown replacement policy %q", name)
	}
}

// replacer holds every set's replacement state in one flat word array and
// dispatches on the policy kind, so the per-access Touch/Insert/Victim calls
// read a few contiguous words instead of going through a per-set interface
// object. The words of set s are words[s*width : (s+1)*width]:
//
//   - LRU: the ways ordered from most- to least-recently used.
//   - FIFO: the ways in fill order, oldest first; hits do not reorder.
//   - TreePLRU: one 0/1 word per internal node of the binary tree,
//     heap-ordered, pointing toward the colder half.
//   - Random: no words; victims come from the RNG shared by every set.
//
// These are exactly the words PolicyState exposes for checkpointing.
type replacer struct {
	kind  PolicyKind
	ways  int
	width int // state words per set
	words []uint32
	r     *rng.Xoshiro256
}

func newReplacer(kind PolicyKind, sets, ways int, r *rng.Xoshiro256) replacer {
	p := replacer{kind: kind, ways: ways, r: r}
	switch kind {
	case LRU, FIFO:
		p.width = ways
	case TreePLRU:
		p.width = ways - 1
	case Random:
	default:
		panic("cache: invalid policy kind")
	}
	p.words = make([]uint32, sets*p.width)
	if p.kind == LRU || p.kind == FIFO {
		for i := range p.words {
			p.words[i] = uint32(i % ways)
		}
	}
	return p
}

// set returns set s's state words.
func (p *replacer) set(s int) []uint32 {
	return p.words[s*p.width : (s+1)*p.width]
}

// Touch records a hit on way in set s.
func (p *replacer) Touch(s, way int) {
	switch p.kind {
	case LRU:
		moveToFront(p.set(s), way)
	case TreePLRU:
		plruTouch(p.set(s), p.ways, way)
	}
}

// Insert records a fill into way in set s.
func (p *replacer) Insert(s, way int) {
	switch p.kind {
	case LRU:
		moveToFront(p.set(s), way)
	case FIFO:
		moveToBack(p.set(s), way)
	case TreePLRU:
		plruTouch(p.set(s), p.ways, way)
	}
}

// Victim picks the way to evict from set s.
func (p *replacer) Victim(s int) int {
	switch p.kind {
	case LRU:
		return int(p.words[(s+1)*p.width-1])
	case FIFO:
		return int(p.words[s*p.width])
	case Random:
		return p.r.Intn(p.ways)
	default:
		return plruVictim(p.set(s), p.ways)
	}
}

// state returns a copy of set s's words (nil for Random, which keeps none;
// its shared RNG is checkpointed once via Cache.RNGState).
func (p *replacer) state(s int) []uint32 {
	if p.kind == Random {
		return nil
	}
	return append(make([]uint32, 0, p.width), p.set(s)...)
}

// restore replaces set s's words with ones captured by state, validating
// shape and invariants first so a corrupt checkpoint fails closed and
// leaves the set untouched.
func (p *replacer) restore(s int, st []uint32) error {
	switch p.kind {
	case LRU, FIFO:
		if err := checkPerm(st, p.ways); err != nil {
			return fmt.Errorf("cache: %v state: %w", p.kind, err)
		}
	case Random:
		if len(st) != 0 {
			return fmt.Errorf("cache: Random state: want 0 words, got %d", len(st))
		}
		return nil
	case TreePLRU:
		if len(st) != p.width {
			return fmt.Errorf("cache: PLRU state: want %d words, got %d", p.width, len(st))
		}
		for i, w := range st {
			if w > 1 {
				return fmt.Errorf("cache: PLRU state: word %d is %d, want 0 or 1", i, w)
			}
		}
	}
	copy(p.set(s), st)
	return nil
}

// moveToFront makes way the first entry of order, shifting the entries
// before it back by one: each slot takes its predecessor until the slot
// that held way, so a hit on the MRU way costs one store.
func moveToFront(order []uint32, way int) {
	prev := uint32(way)
	for i, w := range order {
		order[i] = prev
		if w == uint32(way) {
			return
		}
		prev = w
	}
}

// moveToBack makes way the last entry of queue, shifting the entries after
// it forward by one.
func moveToBack(queue []uint32, way int) {
	for i, w := range queue {
		if w == uint32(way) {
			copy(queue[i:], queue[i+1:])
			queue[len(queue)-1] = w
			return
		}
	}
}

// plruTouch flips the path bits away from way so the tree points elsewhere.
// Requires power-of-two ways (guaranteed by Geometry).
func plruTouch(bits []uint32, ways, way int) {
	node := 0
	lo, hi := 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits[node] = 1 // point at the right (cold) half
			node = 2*node + 1
			hi = mid
		} else {
			bits[node] = 0
			node = 2*node + 2
			lo = mid
		}
	}
}

// plruVictim follows the cold pointers to a leaf. A set bit means "the
// cold half is the right one" (set by plruTouch on a left-half hit), so it
// descends right on 1 and left on 0.
func plruVictim(bits []uint32, ways int) int {
	node := 0
	lo, hi := 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits[node] == 1 {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// checkPerm requires st to be an exact permutation of [0, ways) — the
// invariant both LRU order and FIFO queue maintain.
func checkPerm(st []uint32, ways int) error {
	if len(st) != ways {
		return fmt.Errorf("want %d words, got %d", ways, len(st))
	}
	seen := make([]bool, ways)
	for _, w := range st {
		if int(w) >= ways || seen[w] {
			return fmt.Errorf("words are not a permutation of [0,%d)", ways)
		}
		seen[w] = true
	}
	return nil
}
