package cache

import (
	"testing"

	"cache8t/internal/rng"
)

func TestPolicyKindString(t *testing.T) {
	for k, want := range map[PolicyKind]string{
		LRU: "LRU", FIFO: "FIFO", Random: "Random", TreePLRU: "TreePLRU",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", want, k.String())
		}
	}
	if PolicyKind(99).String() != "PolicyKind(99)" {
		t.Error("unknown kind string")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]PolicyKind{
		"lru": LRU, "LRU": LRU, "fifo": FIFO, "random": Random, "plru": TreePLRU,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("ParsePolicy accepted unknown name")
	}
}

func TestLRUVictimOrdering(t *testing.T) {
	s := newReplacer(LRU, 1, 4, nil)
	// Fresh state: victim is the initial tail.
	if got := s.Victim(0); got != 3 {
		t.Fatalf("initial victim = %d", got)
	}
	s.Touch(0, 3)
	if got := s.Victim(0); got != 2 {
		t.Fatalf("victim after touch(3) = %d", got)
	}
	// Touch everything but way 1; way 1 becomes LRU.
	s.Touch(0, 0)
	s.Touch(0, 2)
	s.Touch(0, 3)
	if got := s.Victim(0); got != 1 {
		t.Fatalf("victim = %d, want 1", got)
	}
	s.Insert(0, 1)
	if got := s.Victim(0); got != 0 {
		t.Fatalf("victim after insert(1) = %d, want 0", got)
	}
}

func TestFIFOIgnoresTouch(t *testing.T) {
	s := newReplacer(FIFO, 1, 3, nil)
	if got := s.Victim(0); got != 0 {
		t.Fatalf("initial FIFO victim = %d", got)
	}
	s.Touch(0, 0) // must not refresh
	if got := s.Victim(0); got != 0 {
		t.Fatalf("FIFO victim after touch = %d", got)
	}
	s.Insert(0, 0) // refill moves it to the back
	if got := s.Victim(0); got != 1 {
		t.Fatalf("FIFO victim after insert = %d", got)
	}
}

func TestRandomVictimInRange(t *testing.T) {
	s := newReplacer(Random, 1, 4, rng.New(9))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := s.Victim(0)
		if v < 0 || v >= 4 {
			t.Fatalf("random victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("random victim only covered %d ways", len(seen))
	}
}

func TestPLRUNeverEvictsMostRecent(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		s := newReplacer(TreePLRU, 1, ways, nil)
		for i := 0; i < 100; i++ {
			way := i % ways
			s.Touch(0, way)
			if ways > 1 && s.Victim(0) == way {
				t.Fatalf("ways=%d: PLRU victim is the just-touched way %d", ways, way)
			}
		}
	}
}

func TestPLRUFullRotation(t *testing.T) {
	// Touch every way; successive victims must cycle through all ways when
	// each victim is immediately re-touched (scan pattern).
	const ways = 8
	s := newReplacer(TreePLRU, 1, ways, nil)
	for w := 0; w < ways; w++ {
		s.Touch(0, w)
	}
	seen := map[int]bool{}
	for i := 0; i < ways; i++ {
		v := s.Victim(0)
		seen[v] = true
		s.Touch(0, v)
	}
	if len(seen) != ways {
		t.Errorf("PLRU scan visited %d/%d ways", len(seen), ways)
	}
}

func TestNewPolicyPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newReplacer(PolicyKind(42), 1, 4, rng.New(0))
}
