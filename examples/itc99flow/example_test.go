//go:build amd64 && !amd64.v3

package main

// Example runs the ITC'99 flow on b14 and pins what it prints: the
// synthesis-stage report, the security metrics and the layout cost at
// M4 and M6.
//
// The numbers were computed on amd64 at the default GOAMD64 level, as
// were the flow package's goldens: other targets may fuse a multiply
// and an add and move the last bits of a float.
func Example() {
	main()
	// Output:
	// b14 @ scale 0.10: in=32 out=54 dff=24 tie=0 gates=1085 depth=74
	//
	// M4 synthesis stage: 45 faults applied, 301 gates removed, 96 um^2 freed, 167 um^2 restore
	// M4 security: key logical 43%, key physical 1%, regular 1%, HD 58%, OER 100%
	// M4 layout cost vs baseline: area +5.7%, power +3.9%, timing -22.5%
	//
	// M6 synthesis stage: 45 faults applied, 301 gates removed, 96 um^2 freed, 167 um^2 restore
	// M6 security: key logical 38%, key physical 1%, regular 1%, HD 47%, OER 100%
	// M6 layout cost vs baseline: area +5.7%, power +4.0%, timing -22.2%
	//
	// paper expectation: logical CCR pinned at ~50% for both layers (split-layer agnostic),
	// physical CCR ~0, OER 100%, area savings with modest power/timing cost
}
