// Package locking implements the paper's primary contribution on the
// netlist level: locking the FEOL with key-gates whose key bits are
// materialized as TIE cells (TIEHI/TIELO) rather than a tamper-proof
// memory. Two schemes are provided:
//
//   - RandomLock: EPIC-style random insertion of XOR/XNOR key-gates
//     [Roy et al., DATE'08], the generic baseline the paper notes any
//     locking technique can fill.
//   - ATPGLock: the cost-driven, fault-injection based scheme of
//     Sengupta et al. VTS'18 that the paper extends (Sec. III-A):
//     inject a stuck-at fault, re-synthesize away the redundant cone,
//     and restore functionality with a comparator keyed by TIE cells.
//
// Both mark TIE cells and restore logic DontTouch, mirroring the
// set_dont_touch / set_dont_touch_network commands of the Fig. 3 flow.
// The flow locks with ATPGLock; RandomLock is its -random-lock
// alternative and the cheap lock of the attack tests.
package locking

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Key is an ordered secret key bit vector. Bit i's value is realized
// in silicon as a TIEHI (true) or TIELO (false) cell.
type Key struct {
	Bits []bool
}

// Len returns the number of key bits.
func (k Key) Len() int { return len(k.Bits) }

// String renders the key as a bit string, bit 0 first.
func (k Key) String() string {
	b := make([]byte, len(k.Bits))
	for i, v := range k.Bits {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// RandomKey draws k uniform key bits (the paper's K <-$- {0,1}^k
// constraint, giving an even TIEHI/TIELO distribution so the TIE-cell
// population leaks nothing).
func RandomKey(k int, rng *sim.Rand) Key {
	bits := make([]bool, k)
	for i := range bits {
		bits[i] = rng.Word()&1 == 1
	}
	return Key{Bits: bits}
}

// Ones counts the TIEHI bits.
func (k Key) Ones() int {
	n := 0
	for _, b := range k.Bits {
		if b {
			n++
		}
	}
	return n
}

// KeyBit records where one key bit lives in the locked netlist.
type KeyBit struct {
	// Tie is the TIE cell driving the bit.
	Tie netlist.GateID
	// Gate is the key-gate consuming the bit.
	Gate netlist.GateID
	// Pin is the key pin index on Gate.
	Pin int
	// Value is the correct (secret) bit value.
	Value bool
}

// Locked bundles a locked netlist with its secret key metadata.
type Locked struct {
	// Circuit is the locked netlist, functionally equivalent to the
	// original when every KeyBit's TIE assignment is as recorded.
	Circuit *netlist.Circuit
	// Key is the secret key (Key.Bits[i] == KeyBits[i].Value).
	Key Key
	// KeyBits locates every key bit.
	KeyBits []KeyBit
	// Scheme names the locking technique used.
	Scheme string
}

// ApplyKey returns a copy of the locked circuit with the TIE cells set
// to the given key (correct or hypothesized). The result has the same
// structure; only TIE polarities change. Used to evaluate wrong-key
// corruption and by the oracle-guided attack demo.
func (l *Locked) ApplyKey(key Key) (*netlist.Circuit, error) {
	if key.Len() != len(l.KeyBits) {
		return nil, fmt.Errorf("locking: key length %d, want %d", key.Len(), len(l.KeyBits))
	}
	c := l.Circuit.Clone()
	for i, kb := range l.KeyBits {
		t := netlist.TieLo
		if key.Bits[i] {
			t = netlist.TieHi
		}
		c.Gate(kb.Tie).Type = t
	}
	return c, nil
}

// RandomLockOptions configures EPIC-style locking.
type RandomLockOptions struct {
	// KeyBits is the number of key-gates to insert (default 128).
	KeyBits int
	// Seed drives net selection and key generation.
	Seed uint64
}

// RandomLock inserts XOR/XNOR key-gates on randomly chosen internal
// nets. With the correct TIE assignment the circuit is equivalent to
// the original; a flipped bit inverts the locked net.
func RandomLock(orig *netlist.Circuit, opt RandomLockOptions) (*Locked, error) {
	if opt.KeyBits <= 0 {
		opt.KeyBits = 128
	}
	c := orig.Clone()
	rng := sim.NewRand(opt.Seed ^ 0x5eed)
	var candidates []netlist.GateID
	for i := 0; i < c.NumIDs(); i++ {
		id := netlist.GateID(i)
		if !c.Alive(id) {
			continue
		}
		g := c.Gate(id)
		if g.Type == netlist.Output || g.Type.IsTie() || g.DontTouch {
			continue
		}
		if c.FanoutCount(id) == 0 {
			continue
		}
		candidates = append(candidates, id)
	}
	if len(candidates) < opt.KeyBits {
		return nil, fmt.Errorf("locking: circuit has %d lockable nets, need %d", len(candidates), opt.KeyBits)
	}
	perm := rng.Perm(len(candidates))
	key := RandomKey(opt.KeyBits, rng)
	lk := &Locked{Circuit: c, Key: key, Scheme: "random-epic"}
	for i := 0; i < opt.KeyBits; i++ {
		if err := insertXorKeyGate(c, lk, candidates[perm[i]], i, key.Bits[i]); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("locking: random lock broke the netlist: %w", err)
	}
	return lk, nil
}

// insertXorKeyGate splices an XOR/XNOR key-gate (with its TIE cell) on
// net as key bit i, recording the bit on lk. XOR with key 0 or XNOR
// with key 1 preserves the function.
func insertXorKeyGate(c *netlist.Circuit, lk *Locked, net netlist.GateID, i int, bit bool) error {
	gt := netlist.Xor
	tt := netlist.TieLo
	if bit {
		gt = netlist.Xnor
		tt = netlist.TieHi
	}
	tie, err := c.AddGate(fmt.Sprintf("tie_k%d", i), tt)
	if err != nil {
		return err
	}
	kg, err := c.AddGate(fmt.Sprintf("kg%d", i), gt, net, tie)
	if err != nil {
		return err
	}
	// Move the original sinks of net to the key-gate output (excluding
	// the key-gate itself, whose pin 0 must keep reading the original
	// net).
	c.RewireNet(net, kg)
	c.Gate(kg).Fanin[0] = net
	c.Invalidate()
	c.Gate(tie).DontTouch = true
	c.Gate(kg).DontTouch = true
	c.Gate(kg).KeyPin = 1
	lk.KeyBits = append(lk.KeyBits, KeyBit{Tie: tie, Gate: kg, Pin: 1, Value: bit})
	return nil
}
