//go:build amd64

package main

// Example runs the quickstart program and pins what it prints: the
// design statistics, the key, the attack's CCR/HD/OER and the LEC
// verdict.
//
// The numbers hold on amd64 at every GOAMD64 level, as the flow
// package's goldens do: other architectures may fuse a multiply and an
// add and move the last bits of a float.
func Example() {
	main()
	// Output:
	// original design: in=60 out=26 dff=0 tie=0 gates=445 depth=34
	// locked design:   in=60 out=26 dff=0 tie=70 gates=401 depth=27
	// secret key:      0100110000010111001000010101110001110111100000011001100100011110
	// split at M4:     710 broken pins, 64 of them key-nets
	// attack result:   key logical CCR 55% (random guessing = 50%), physical CCR 0%
	// recovered chip:  HD 44%, OER 100% — not the original design
	// trusted BEOL:    LEC equivalent to original = true
}
