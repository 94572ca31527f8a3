package attack

import "repro/internal/split"

// Ideal implements the "ideal proximity attack" of Sec. IV-A: the most
// conservative analysis setup, in which the attacker is granted the
// correct connection for every regular net and only the key-nets remain
// to be resolved. Because the paper's construction leaves no FEOL hint
// on key-nets, the best available strategy is a uniformly random guess
// over the TIE cells — which is exactly what this function performs
// (each seed gives one independent guess; the 1M-run experiment calls
// it repeatedly).
func Ideal(view *split.FEOLView, secret *split.Secret, seed uint64) Assignment {
	rng := newRand(seed)
	ties := view.TieStubs()
	asg := make(Assignment, len(view.CutPins))
	for _, cp := range view.CutPins {
		if cp.IsKeyPin && len(ties) > 0 {
			asg[cp.Ref] = ties[rng.intn(len(ties))].Driver
		} else {
			asg[cp.Ref] = secret.Assignment[cp.Ref]
		}
	}
	return asg
}
