package flow

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/dispatch"
)

// CellSpecFor builds the wire-level spec for one benchmark×layer cell
// of an ITC run: the result-affecting fields plus the solver width a
// worker should honor. The coordinator and the worker must agree on
// these through the spec alone — workers share no flags or files with
// the coordinator.
func CellSpecFor(bench string, layer int, opt ITCOptions) dispatch.CellSpec {
	opt = opt.withDefaults()
	return dispatch.CellSpec{
		Bench:         bench,
		Layer:         layer,
		Scale:         opt.Scale,
		KeyBits:       opt.KeyBits,
		Patterns:      opt.Patterns,
		Seed:          opt.Seed,
		SolverWorkers: opt.SolverWorkers,
	}
}

// ValidateCellSpec rejects a dispatched cell spec with a
// client-presentable error: the design checks of JobSpec.Validate plus
// a positive split layer.
func ValidateCellSpec(spec dispatch.CellSpec) error {
	if spec.Layer <= 0 {
		return fmt.Errorf("flow: cell layer %d must be positive", spec.Layer)
	}
	return validateDesign([]string{spec.Bench}, spec.Scale, spec.KeyBits)
}

// DispatchCellFunc returns the worker side of the dispatch seam: a
// CellFunc that computes the spec'd cell via RunITCCell and marshals
// the SplitResult exactly as the run manifest would — so a payload that
// travelled through a worker process checkpoint-flushes byte-identical
// to one computed in-process. base carries the worker-local JobTimeout,
// which is not part of a cell's identity.
func DispatchCellFunc(base ITCOptions) dispatch.CellFunc {
	return func(ctx context.Context, spec dispatch.CellSpec) (json.RawMessage, error) {
		opt := base
		opt.Scale = spec.Scale
		opt.KeyBits = spec.KeyBits
		opt.Patterns = spec.Patterns
		opt.Seed = spec.Seed
		opt.SolverWorkers = spec.SolverWorkers
		res, err := RunITCCell(ctx, spec.Bench, spec.Layer, opt)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
}

// DispatchRunner returns an ITCOptions.CellRunner that sends each cell
// through a dispatch coordinator instead of computing it in-process.
// The returned SplitResult re-marshals to the exact bytes the worker
// produced (Go's shortest-round-trip float encoding makes
// unmarshal∘marshal the identity on SplitResult), so the coordinated
// manifest is byte-identical to a single-process run.
func DispatchRunner(c *dispatch.Coordinator, opt ITCOptions) func(ctx context.Context, bench string, layer int) (SplitResult, error) {
	opt = opt.withDefaults()
	return func(ctx context.Context, bench string, layer int) (SplitResult, error) {
		payload, err := c.RunCell(ctx, CellSpecFor(bench, layer, opt))
		if err != nil {
			return SplitResult{}, err
		}
		var res SplitResult
		if err := json.Unmarshal(payload, &res); err != nil {
			return SplitResult{}, fmt.Errorf("cell %s: worker payload does not parse as a SplitResult: %w", ITCCellKey(bench, layer), err)
		}
		return res, nil
	}
}
