//go:build amd64 && !amd64.v3

package main

// Example runs the Table III comparison on c432 and c880 and pins
// every PNR/CCR/HD/OER value it prints.
//
// The numbers were computed on amd64 at the default GOAMD64 level, as
// were the flow package's goldens: other targets may fuse a multiply
// and an add and move the last bits of a float.
func Example() {
	main()
	// Output:
	// scheme        bench    PNR%   CCR%    HD%   OER%
	// perturb22     c432     18.1    2.7   43.6   99.0
	// lift12        c432     22.9    8.1   72.8  100.0
	// restore13     c432      9.0    5.8   52.3   99.9
	// proposed      c432     36.0    2.3   47.4  100.0
	// perturb22     c880      7.4    0.8   53.3  100.0
	// lift12        c880      8.1    2.3   49.9  100.0
	// restore13     c880      3.8    2.4   49.3  100.0
	// proposed      c880     26.1    0.8   52.2  100.0
	//
	// reading guide: [22] leaves connectivity intact → the attack recovers most nets (high CCR);
	// [12]/[13] erase hints by lifting (CCR→0) but stay heuristic — no key, no formal bound;
	// the proposed scheme also erases hints AND carries a 128-bit key: an attacker
	// needs the BEOL secret, not just better heuristics, to recover the design.
}
