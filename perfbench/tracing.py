"""Per-layer tracing from outside the program.

A Tracer replaces, in its own process only, the module attributes that
each layer of ``icrf`` is entered through, and puts them back on exit.
Every wrapper records its call's time and counts under the current phase
(``fit`` or ``predict``; nothing is recorded while the phase is None).
Time spent in calls that are not nested in another wrapped call is the
phase's covered time; the rest of a traced ``fit`` is its residual.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.phase = None
        self.stats = defaultdict(float)
        self._depth = 0
        self._saved = []

    def add(self, key: str, value: float):
        if self.phase is not None:
            self.stats[f"{self.phase}.{key}"] += value

    # -- patching ------------------------------------------------------

    def _wrap(self, owner, attr: str, key: str | None, count=None):
        """Replace owner.attr by a wrapper that adds its time to ``key``
        (None: count only) and the counts ``count(args, result)`` returns."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return orig(*args, **kwargs)
            tracer._depth += 1
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._depth -= 1
            if key is not None:
                tracer.add(key, dt)
                if tracer._depth == 0:
                    tracer.add("covered_s", dt)
            if count is not None:
                for name, amount in count(args, out).items():
                    tracer.add(name, amount)
            return out

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        import icrf.curves as curves
        import icrf.forest as forest
        import icrf.tree as tree

        def leaf_fit(args, fit):
            return {
                "npmle.leaf_fits": 1,
                "npmle.em_iters": fit.iterations,
                "npmle.max_iter_hits": 0 if fit.converged else 1,
            }

        def grown(args, t):
            return {"tree.nodes": t.feature.size, "tree.leaves": t.n_leaves}

        def smoothed(args, rows):
            locs, _, _, grid = args
            atoms = sum(np.asarray(loc).size for loc in locs)
            return {"smooth.kernel_evals": atoms * np.asarray(grid).size,
                    "smooth.leaves": len(locs)}

        def routed(args, leaf_of):
            return {"tree.apply_rows": np.atleast_1d(leaf_of).size}

        def one_stat(args, out):
            return {"splits.stat_evals": 1}

        self._wrap(tree, "npmle_fit", "npmle.leaf_s", leaf_fit)
        self._wrap(tree, "curve_from_grid_values", "tree.leaf_curve_s")
        self._wrap(tree, "gwrs_from_sums", "splits.stat_s", one_stat)
        self._wrap(tree, "glr_from_sums", "splits.stat_s", one_stat)
        self._wrap(forest, "npmle_fit", "npmle.marginal_s")
        self._wrap(forest, "grow_tree_ctx", "tree.grow_s", grown)
        self._wrap(forest, "refine_uniform", "smooth.refine_s")
        self._wrap(forest, "curve_atoms", "smooth.refine_s")
        self._wrap(forest, "smoothed_values_matrix", "smooth.matrix_s", smoothed)
        self._wrap(forest, "imse1_on_rows", "forest.oob_metric_s")
        self._wrap(tree.Tree, "apply", "tree.apply_s", routed)
        self._wrap(curves.StepSurvival, "interpolate", "curves.interpolate_s")
        self._wrap(curves.StepSurvival, "__post_init__", None,
                   lambda args, out: {"curves.step_curves": 1})
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        self.phase = None
        return False

    # -- results -------------------------------------------------------

    def run(self, phase: str, fn, *args, **kwargs):
        """Call fn under ``phase``; its wall time adds to ``<phase>.traced_total_s``."""
        self.phase = phase
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stats[f"{phase}.traced_total_s"] += time.perf_counter() - t0
            self.phase = None

    def layer_metrics(self) -> dict:
        s = self.stats
        out = {
            "fit.traced_total_s": s["fit.traced_total_s"],
            "fit.npmle.leaf_s": s["fit.npmle.leaf_s"],
            "fit.npmle.leaf_fits": s["fit.npmle.leaf_fits"],
            "fit.npmle.em_iters": s["fit.npmle.em_iters"],
            "fit.npmle.max_iter_hits": s["fit.npmle.max_iter_hits"],
            "fit.npmle.marginal_s": s["fit.npmle.marginal_s"],
            "fit.tree.grow_s": s["fit.tree.grow_s"],
            # grow time not spent building leaf curves
            "fit.tree.split_s": s["fit.tree.grow_s"] - s["fit.npmle.leaf_s"]
            - s["fit.tree.leaf_curve_s"],
            "fit.tree.nodes": s["fit.tree.nodes"],
            "fit.tree.leaves": s["fit.tree.leaves"],
            "fit.splits.stat_evals": s["fit.splits.stat_evals"],
            "fit.smooth.refine_s": s["fit.smooth.refine_s"],
            "fit.smooth.matrix_s": s["fit.smooth.matrix_s"],
            "fit.smooth.kernel_evals": s["fit.smooth.kernel_evals"],
            "fit.smooth.leaves": s["fit.smooth.leaves"],
            "fit.forest.oob_metric_s": s["fit.forest.oob_metric_s"],
            "fit.tree.apply_s": s["fit.tree.apply_s"],
            "fit.curves.step_curves": s["fit.curves.step_curves"],
            "fit.curves.interpolate_s": s["fit.curves.interpolate_s"],
            "fit.forest.residual_s": s["fit.traced_total_s"] - s["fit.covered_s"],
            "predict.traced_total_s": s["predict.traced_total_s"],
            "predict.smooth.refine_s": s["predict.smooth.refine_s"],
            "predict.smooth.matrix_s": s["predict.smooth.matrix_s"],
            "predict.smooth.kernel_evals": s["predict.smooth.kernel_evals"],
            "predict.tree.apply_s": s["predict.tree.apply_s"],
            "predict.tree.apply_rows": s["predict.tree.apply_rows"],
            "predict.curves.interpolate_s": s["predict.curves.interpolate_s"],
        }
        return out
