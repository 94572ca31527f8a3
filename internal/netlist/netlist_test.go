package netlist

import (
	"strings"
	"testing"
)

// buildC17 constructs the classic ISCAS c17 netlist by hand.
func buildC17(t *testing.T) *Circuit {
	t.Helper()
	c := New("c17")
	i1 := c.MustAdd("I1", Input)
	i2 := c.MustAdd("I2", Input)
	i3 := c.MustAdd("I3", Input)
	i4 := c.MustAdd("I4", Input)
	i5 := c.MustAdd("I5", Input)
	n1 := c.MustAdd("U8", Nand, i1, i3)
	n2 := c.MustAdd("U9", Nand, i3, i4)
	n3 := c.MustAdd("U10", Nand, i2, n2)
	n4 := c.MustAdd("U11", Nand, n2, i5)
	n5 := c.MustAdd("U12", Nand, n1, n3)
	n6 := c.MustAdd("U13", Nand, n3, n4)
	c.MustAdd("O1", Output, n5)
	c.MustAdd("O2", Output, n6)
	if err := c.Validate(); err != nil {
		t.Fatalf("c17 validate: %v", err)
	}
	return c
}

func TestBuildAndAccessors(t *testing.T) {
	c := buildC17(t)
	if got := c.NumGates(); got != 13 {
		t.Errorf("NumGates = %d, want 13", got)
	}
	if len(c.Inputs()) != 5 || len(c.Outputs()) != 2 {
		t.Errorf("boundary: in=%d out=%d, want 5/2", len(c.Inputs()), len(c.Outputs()))
	}
	id := c.GateByName("U10")
	if id == InvalidGate {
		t.Fatal("U10 not found")
	}
	if c.Gate(id).Type != Nand {
		t.Errorf("U10 type = %v, want NAND", c.Gate(id).Type)
	}
	if c.GateByName("nope") != InvalidGate {
		t.Error("lookup of missing name should be InvalidGate")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	c := New("dup")
	c.MustAdd("a", Input)
	if _, err := c.AddGate("a", Input); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestArityEnforced(t *testing.T) {
	c := New("arity")
	a := c.MustAdd("a", Input)
	cases := []struct {
		t   GateType
		fan []GateID
	}{
		{And, []GateID{a}},       // AND needs >= 2
		{Not, []GateID{a, a}},    // NOT needs exactly 1
		{Mux, []GateID{a, a}},    // MUX needs exactly 3
		{Input, []GateID{a}},     // INPUT takes none
		{TieHi, []GateID{a}},     // TIE takes none
		{Output, []GateID{a, a}}, // OUTPUT takes one
		{DFF, []GateID{a, a}},    // DFF takes one
		{Xor, []GateID{a}},       // XOR needs >= 2
	}
	for _, tc := range cases {
		if _, err := c.AddGate("", tc.t, tc.fan...); err == nil {
			t.Errorf("type %v with %d fanins accepted", tc.t, len(tc.fan))
		}
	}
}

func TestUnknownFaninRejected(t *testing.T) {
	c := New("bad")
	if _, err := c.AddGate("g", Buf, GateID(42)); err == nil {
		t.Fatal("dangling fanin accepted")
	}
	if _, err := c.AddGate("g", Buf, InvalidGate); err == nil {
		t.Fatal("InvalidGate fanin accepted")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	c := buildC17(t)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[GateID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := 0; i < c.NumIDs(); i++ {
		id := GateID(i)
		for _, f := range c.Gate(id).Fanin {
			if pos[f] > pos[id] {
				t.Errorf("gate %s before its fanin %s", c.Gate(id).Name, c.Gate(f).Name)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	c := New("cyc")
	a := c.MustAdd("a", Input)
	g1 := c.MustAdd("g1", And, a, a) // placeholder second pin
	g2 := c.MustAdd("g2", And, g1, a)
	if err := c.SetFanin(g1, 1, g2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate missed combinational cycle")
	}
}

func TestDFFBreaksCycles(t *testing.T) {
	// A classic sequential loop: q = DFF(d), d = NOT(q). Legal.
	c := New("seq")
	tmp := c.MustAdd("tmp", Input)
	q := c.MustAdd("q", DFF, tmp) // placeholder fanin, rewired below
	d := c.MustAdd("d", Not, q)
	if err := c.SetFanin(q, 0, d); err != nil {
		t.Fatal(err)
	}
	c.Kill(tmp)
	c.MustAdd("o", Output, q)
	if err := c.Validate(); err != nil {
		t.Fatalf("sequential loop through DFF should be legal: %v", err)
	}
}

func TestLevels(t *testing.T) {
	c := buildC17(t)
	lvl, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if l := lvl[c.GateByName("I1")]; l != 0 {
		t.Errorf("input level = %d, want 0", l)
	}
	if l := lvl[c.GateByName("U12")]; l != 3 {
		t.Errorf("U12 level = %d, want 3", l)
	}
	d, _ := c.Depth()
	if d != 4 {
		t.Errorf("depth = %d, want 4 (outputs add one level)", d)
	}
}

func TestFanouts(t *testing.T) {
	c := buildC17(t)
	n2 := c.GateByName("U9")
	fo := c.Fanouts(n2)
	if len(fo) != 2 {
		t.Fatalf("U9 fanout = %d, want 2", len(fo))
	}
}

func TestTransitiveConesAndSupport(t *testing.T) {
	c := buildC17(t)
	u12 := c.GateByName("U12")
	cone := c.TransitiveFanin(u12)
	for _, name := range []string{"U12", "U8", "U10", "U9", "I1", "I2", "I3", "I4"} {
		if !cone[c.GateByName(name)] {
			t.Errorf("fanin cone of U12 missing %s", name)
		}
	}
	if cone[c.GateByName("I5")] {
		t.Error("I5 must not be in U12's fanin cone")
	}
	sup := c.Support(u12)
	if len(sup) != 4 {
		t.Errorf("support size = %d, want 4", len(sup))
	}
}

func TestBoundedCone(t *testing.T) {
	c := buildC17(t)
	u12 := c.GateByName("U12")
	cone, frontier := c.BoundedCone(u12, 1)
	if len(cone) != 1 || !cone[u12] {
		t.Fatalf("depth-1 cone = %v, want just U12", cone)
	}
	if len(frontier) != 2 {
		t.Fatalf("frontier size = %d, want 2 (U8, U10)", len(frontier))
	}
	// Unbounded depth reaches the inputs.
	_, frontier = c.BoundedCone(u12, 100)
	for _, f := range frontier {
		if !c.Gate(f).Type.IsSource() {
			t.Errorf("deep frontier contains non-source %s", c.Gate(f).Name)
		}
	}
	// A source root yields itself as frontier.
	_, frontier = c.BoundedCone(c.GateByName("I1"), 5)
	if len(frontier) != 1 || frontier[0] != c.GateByName("I1") {
		t.Errorf("source root frontier = %v", frontier)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c := buildC17(t)
	cl := c.Clone()
	u8 := cl.GateByName("U8")
	cl.Gate(u8).Fanin[0] = cl.GateByName("I5")
	if c.Gate(c.GateByName("U8")).Fanin[0] == c.GateByName("I5") {
		t.Fatal("clone shares fanin storage with original")
	}
	if cl.NumGates() != c.NumGates() {
		t.Fatal("clone gate count differs")
	}
}

func TestRewireKillSweep(t *testing.T) {
	c := buildC17(t)
	// Replace U8 with a BUF of I1 (arbitrary edit), then sweep.
	u8 := c.GateByName("U8")
	b := c.MustAdd("bypass", Buf, c.GateByName("I1"))
	moved := c.RewireNet(u8, b)
	if moved != 1 {
		t.Fatalf("RewireNet moved %d pins, want 1", moved)
	}
	c.Kill(u8)
	if err := c.Validate(); err != nil {
		t.Fatalf("after rewire+kill: %v", err)
	}
	before := c.NumGates()
	removed := c.SweepDead()
	if removed != 0 {
		t.Fatalf("sweep removed %d live gates", removed)
	}
	if c.NumGates() != before {
		t.Fatal("sweep changed gate count unexpectedly")
	}
	// Add an orphan gate; it must be swept.
	c.MustAdd("orphan", And, c.GateByName("I1"), c.GateByName("I2"))
	if removed := c.SweepDead(); removed != 1 {
		t.Fatalf("sweep removed %d, want 1 orphan", removed)
	}
	// DontTouch orphans survive.
	id := c.MustAdd("keepme", TieHi)
	c.Gate(id).DontTouch = true
	if removed := c.SweepDead(); removed != 0 {
		t.Fatalf("sweep removed DontTouch orphan")
	}
}

const c17Bench = `
# c17 benchmark
INPUT(I1)
INPUT(I2)
INPUT(I3)
INPUT(I4)
INPUT(I5)
OUTPUT(U12)
OUTPUT(U13)
U8 = NAND(I1, I3)
U9 = NAND(I3, I4)
U10 = NAND(I2, U9)
U11 = NAND(U9, I5)
U12 = NAND(U8, U10)
U13 = NAND(U10, U11)
`

func TestParseBench(t *testing.T) {
	c, err := ParseBenchString(c17Bench, "c17")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s := c.ComputeStats()
	if s.Inputs != 5 || s.Outputs != 2 || s.Gates != 6 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestParseBenchOutOfOrder(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
z = AND(x, y)
x = NOT(a)
y = BUF(a)
`
	c, err := ParseBenchString(src, "ooo")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"z = FROB(a)",            // unknown type
		"junk line",              // no '='
		"z = AND(a, b",           // missing paren
		"OUTPUT(ghost)",          // no driver
		"a = NOT(b)\nb = NOT(a)", // pure combinational cycle
	}
	for _, src := range cases {
		if _, err := ParseBenchString(src, "bad"); err == nil {
			t.Errorf("accepted malformed bench: %q", src)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := buildC17(t)
	tie := c.MustAdd("k_hi", TieHi)
	kg := c.MustAdd("kx", Xor, c.GateByName("U8"), tie)
	c.RewireNet(c.GateByName("U8"), kg)
	// RewireNet also redirected kg's own first pin; put it back.
	if err := c.SetFanin(kg, 0, c.GateByName("U8")); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	text := c.BenchString()
	if !strings.Contains(text, "TIEHI") {
		t.Fatalf("serialization lost TIE cell:\n%s", text)
	}
	back, err := ParseBenchString(text, "c17rt")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if back.NumGates() != c.NumGates() {
		t.Fatalf("round trip gate count %d != %d", back.NumGates(), c.NumGates())
	}
}

func TestGateTypeStringRoundTrip(t *testing.T) {
	for tt := Input; tt < numGateTypes; tt++ {
		got, ok := ParseGateType(tt.String())
		if !ok || got != tt {
			t.Errorf("ParseGateType(%q) = %v,%v", tt.String(), got, ok)
		}
	}
	if _, ok := ParseGateType("NOPE"); ok {
		t.Error("ParseGateType accepted junk")
	}
}

func TestIsKeyGate(t *testing.T) {
	c := buildC17(t)
	g := c.Gate(c.GateByName("U8"))
	if g.IsKeyGate() {
		t.Error("fresh gate claims to be a key-gate")
	}
	g.KeyPin = 1
	if !g.IsKeyGate() {
		t.Error("KeyPin=1 not recognized")
	}
}
