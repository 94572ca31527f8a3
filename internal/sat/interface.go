package sat

// Interface is the incremental-solver surface shared by a single Solver
// and a Portfolio. The LEC checker, the AIG emitter, and the SAT
// attack are written against it, so a portfolio of diverging solver
// instances is a drop-in replacement for one solver wherever the model
// (not the search order) is what matters.
type Interface interface {
	// NewVar allocates a fresh variable (1-based DIMACS index).
	NewVar() int
	// AddClause adds a clause over DIMACS literals.
	AddClause(lits ...int)
	// Solve decides the instance under the given assumptions.
	Solve(assumptions ...int) Status
	// SolveLimited is Solve with a conflict budget (< 0 = unlimited);
	// Unknown means the budget ran out or the call was interrupted.
	SolveLimited(budget int64, assumptions ...int) Status
	// Value reads variable v from the model of the last Sat result.
	Value(v int) bool
	// NumVars returns the number of allocated variables.
	NumVars() int
	// NumClauses returns the live problem+learnt clause count.
	NumClauses() int
	// NumProblemClauses returns the live problem clause count.
	NumProblemClauses() int
}

var (
	_ Interface = (*Solver)(nil)
	_ Interface = (*Portfolio)(nil)
)
