package dd

import "fmt"

// Structural invariant checks.  These are debugging and property-test aids:
// every canonical DD must satisfy them at all times, so the test suite runs
// them after randomized operation sequences.

// ValidateV checks the canonicity invariants of a vector DD:
//
//  1. levels strictly decrease along every path (full chains, only zero
//     edges shortcut),
//  2. every node is normalized: some child carries weight exactly One and
//     no child weight magnitude exceeds it,
//  3. no node has two zero children,
//  4. every reachable node is canonical: probing the unique table with the
//     node's own signature finds exactly that node.
func (p *Package) ValidateV(e VEdge) error {
	seen := make(map[VRef]bool)
	var walk func(e VEdge, parentLevel int) error
	walk = func(e VEdge, parentLevel int) error {
		if e.W == p.CN.Zero {
			if e.N != 0 {
				return fmt.Errorf("dd: zero edge with non-terminal node")
			}
			return nil
		}
		if e.N == 0 {
			if parentLevel != 0 {
				return fmt.Errorf("dd: non-zero terminal edge skips levels (parent level %d)", parentLevel)
			}
			return nil
		}
		v := p.vLv(e.N)
		if v >= parentLevel {
			return fmt.Errorf("dd: level %d not below parent %d", v, parentLevel)
		}
		if seen[e.N] {
			return nil
		}
		seen[e.N] = true
		if !p.vInterned(e.N) {
			return fmt.Errorf("dd: node at level %d not found by probing its signature", v)
		}
		hasOne := false
		for i := 0; i < 2; i++ {
			w := p.vE(e.N, i).W
			if w == p.CN.One {
				hasOne = true
			}
			if w.Abs2() > 1+64*p.CN.Tolerance() {
				return fmt.Errorf("dd: child weight magnitude %g exceeds 1 at level %d", w.Abs(), v)
			}
		}
		if !hasOne {
			return fmt.Errorf("dd: node at level %d has no unit child weight", v)
		}
		if p.vE(e.N, 0).W == p.CN.Zero && p.vE(e.N, 1).W == p.CN.Zero {
			return fmt.Errorf("dd: node at level %d has two zero children", v)
		}
		for i := 0; i < 2; i++ {
			if err := walk(p.vE(e.N, i), v); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e, p.n)
}

// ValidateM checks the same invariants for a matrix DD.
func (p *Package) ValidateM(e MEdge) error {
	seen := make(map[MRef]bool)
	var walk func(e MEdge, parentLevel int) error
	walk = func(e MEdge, parentLevel int) error {
		if e.W == p.CN.Zero {
			if e.N != 0 {
				return fmt.Errorf("dd: zero edge with non-terminal node")
			}
			return nil
		}
		if e.N == 0 {
			if parentLevel != 0 {
				return fmt.Errorf("dd: non-zero terminal edge skips levels (parent level %d)", parentLevel)
			}
			return nil
		}
		v := p.mLv(e.N)
		if v >= parentLevel {
			return fmt.Errorf("dd: level %d not below parent %d", v, parentLevel)
		}
		if seen[e.N] {
			return nil
		}
		seen[e.N] = true
		if !p.mInterned(e.N) {
			return fmt.Errorf("dd: node at level %d not found by probing its signature", v)
		}
		hasOne := false
		allZero := true
		for i := 0; i < 4; i++ {
			w := p.mE(e.N, i).W
			if w == p.CN.One {
				hasOne = true
			}
			if w != p.CN.Zero {
				allZero = false
			}
			if w.Abs2() > 1+64*p.CN.Tolerance() {
				return fmt.Errorf("dd: child weight magnitude %g exceeds 1 at level %d", w.Abs(), v)
			}
		}
		if !hasOne {
			return fmt.Errorf("dd: node at level %d has no unit child weight", v)
		}
		if allZero {
			return fmt.Errorf("dd: node at level %d has four zero children", v)
		}
		for i := 0; i < 4; i++ {
			if err := walk(p.mE(e.N, i), v); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e, p.n)
}

// vInterned reports whether probing the vector unique table with node r's
// signature finds r itself.
func (p *Package) vInterned(r VRef) bool {
	return p.vFind(p.vSig(r), p.vA.lv[r], &p.vA.wt[r], &p.vA.ch[r]) == r
}

// mInterned is the matrix counterpart of vInterned.
func (p *Package) mInterned(r MRef) bool {
	return p.mFind(p.mSig(r), p.mA.lv[r], &p.mA.wt[r], &p.mA.ch[r]) == r
}

// ValidateTables checks the unique tables and arenas as a whole, reachable
// or not — the invariants a collection must leave behind:
//
//  1. each table is a power of two in length, at most half full, and its
//     population counter matches its occupied slots;
//  2. every live arena slot is found by probing its own signature, and the
//     table holds nothing else (so no two live nodes share a signature);
//  3. no live node has a child on the free list;
//  4. every free-listed slot is scrubbed, and the free and live slots
//     together account for the whole arena.
func (p *Package) ValidateTables() error {
	for i, lv := range p.vA.lv {
		for _, c := range p.vA.ch[i] {
			if lv >= 0 && c != 0 && p.vA.lv[c] < 0 {
				return fmt.Errorf("dd: vector node %d has freed child %d", i, c)
			}
		}
	}
	for i, lv := range p.mA.lv {
		for _, c := range p.mA.ch[i] {
			if lv >= 0 && c != 0 && p.mA.lv[c] < 0 {
				return fmt.Errorf("dd: matrix node %d has freed child %d", i, c)
			}
		}
	}
	if err := checkTable("vector", &p.vU, p.vA.lv, p.vA.free, p.vInterned); err != nil {
		return err
	}
	return checkTable("matrix", &p.mU, p.mA.lv, p.mA.free, p.mInterned)
}

// checkTable runs ValidateTables' table and free-list checks on one kind.
// lv is the arena's level slab (-1 marks the terminal and free slots).
func checkTable[R VRef | MRef](kind string, t *refTable, lv []int8, free []R, interned func(R) bool) error {
	if len(t.s) == 0 || len(t.s)&(len(t.s)-1) != 0 {
		return fmt.Errorf("dd: %s unique table has %d slots, not a power of two", kind, len(t.s))
	}
	if 2*t.n > len(t.s) {
		return fmt.Errorf("dd: %s unique table %d/%d slots full, above one half", kind, t.n, len(t.s))
	}
	occupied := 0
	for _, r := range t.s {
		if r == 0 {
			continue
		}
		occupied++
		if int(r) >= len(lv) || lv[r] < 0 {
			return fmt.Errorf("dd: %s unique table holds dead slot %d", kind, r)
		}
	}
	if occupied != t.n {
		return fmt.Errorf("dd: %s unique table counts %d entries, holds %d", kind, t.n, occupied)
	}
	live := 0
	for i := 1; i < len(lv); i++ {
		if lv[i] < 0 {
			continue
		}
		live++
		if !interned(R(i)) {
			return fmt.Errorf("dd: live %s node %d not found by probing its signature", kind, i)
		}
	}
	if live != t.n {
		return fmt.Errorf("dd: %s arena has %d live nodes, unique table %d", kind, live, t.n)
	}
	for _, r := range free {
		if r == 0 || lv[r] >= 0 {
			return fmt.Errorf("dd: %s free list holds live slot %d", kind, r)
		}
	}
	if live+len(free) != len(lv)-1 {
		return fmt.Errorf("dd: %s arena: %d live + %d free != %d slots", kind, live, len(free), len(lv)-1)
	}
	return nil
}
