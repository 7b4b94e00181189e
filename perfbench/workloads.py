"""The three workloads: their inputs, timed phases and output checks.

A run fits the workload's forest once on each of its training sets and
checks every fit, then saves, loads and predicts with every fitted model
and checks those outputs. Without a tracer every phase is timed with the
speed calibration of ``timing``: ``fit_s`` is the trimmed mean over the
training sets, and the save/load/predict phases are repeated in
interleaved rounds for the rest of the run. With a tracer every phase
runs once, under the tracer.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from timing import EXPONENT, NOMINAL_CHUNK_S, Phase, chunk_time, timed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

GRID_N = 101  # evaluation grid on [0, tau] for predictions and oracle errors
N_QUERIES = 1000
SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes, this one included
MIN_REPS = 3  # repetitions of each save/load/predict phase, at least
REP_TARGET_S = 0.25  # shorter calls are batched until one repetition takes this long
LOADED_SMOOTHED = 1  # loaded models whose smoothed prediction is checked (costly on fit-exploit)
SERVE_PHASES = ("save", "load", "predict_1q_smoothed", "predict_1kq_smoothed",
                "predict_1q_raw", "predict_1kq_raw")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: int
    n: int
    M: int
    rule: str
    prediction: str
    n_tree: int
    n_fold: int
    n_datasets: int  # training sets per run, each fitted, saved, loaded and queried
    n_queries: int = N_QUERIES


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-qh", 5, 300, 3, "GWRS", "quasi_honest", 3, 3, 16),
        Workload("fit-exploit", 1, 300, 1, "GWRS", "exploitative", 1, 2, 8),
        Workload("serve", 5, 1000, 1, "GLR", "quasi_honest", 3, 2, 10),
    )
}


def tiny(w: Workload) -> Workload:
    """A small copy of a workload for smoke tests: one training set of at
    most 300 subjects, 50 queries."""
    return Workload(w.name, w.scenario, min(w.n, 300), w.M, w.rule, w.prediction,
                    w.n_tree, w.n_fold, 1, n_queries=50)


def sub_seed(seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


@dataclass
class Inputs:
    datasets: list
    params: object
    queries: np.ndarray
    grid: np.ndarray


def make_inputs(icrf, w: Workload, seed: int) -> Inputs:
    datasets = [
        icrf.generate(icrf.Scenario(w.scenario, n=w.n, M=w.M, seed=sub_seed(seed, 1, j))).dataset
        for j in range(w.n_datasets)
    ]
    params = icrf.ForestParams(
        n_tree=w.n_tree,
        n_fold=w.n_fold,
        seed=sub_seed(seed, 2),
        n_jobs=1,
        tree=icrf.TreeParams(n_min=6, rule=icrf.SplitRule(w.rule), prediction=w.prediction),
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    queries = checks.draw_covariates(w.scenario, w.n_queries, rng)
    grid = np.linspace(0.0, datasets[0].tau, GRID_N)
    return Inputs(datasets, params, queries, grid)


def timed_setup(icrf, import_s: float, w: Workload, seed: int):
    """Make the inputs; return them and one set-up sample: the given
    ``import icrf`` time plus the generation time, calibrated by the
    chunks timed right after."""
    t0 = time.perf_counter()
    inputs = make_inputs(icrf, w, seed)
    generate_s = time.perf_counter() - t0
    chunk_s = chunk_time()
    return inputs, {
        "setup_s": (import_s + generate_s) * (NOMINAL_CHUNK_S / chunk_s) ** EXPONENT,
        "import_s": import_s, "generate_s": generate_s, "chunk_ms": 1e3 * chunk_s,
    }


def setup_samples(src: str, w: Workload, seed: int, small: bool, count: int) -> list[dict]:
    """Set-up samples from ``count`` more fresh processes."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), src, w.name, str(seed)]
    if small:
        cmd.append("--tiny")
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Run:
    """One workload run; with ``tracer`` it is the traced form."""

    def __init__(self, icrf, w: Workload, seed: int, deadline: float, tracer=None):
        self.icrf = icrf
        self.w = w
        self.seed = seed
        self.deadline = deadline  # a perf_counter() time
        self.tracer = tracer
        self.ledger = checks.Ledger()
        self.phases: dict[str, Phase] = {}
        self.layer: dict[str, float] = {}
        self.accuracy: list[tuple] = []  # (eps_int, eps_sup, marginal eps_int) per fit

    def measure(self, specs, deadline: float) -> dict:
        """Time the phases ``specs``, a list of (name, fn, arg_sets,
        trace_phase); return {name: results of fn on each argument tuple}.

        Untraced: a first pass calls fn once on each argument tuple and
        times each call. A phase whose calls take at least REP_TARGET_S
        keeps those as repetitions; it joins the rounds only while it has
        fewer than MIN_REPS, each further repetition being one call on the
        next argument tuple in turn. In a shorter phase the
        first pass is a warm-up, and a repetition is a batch of passes
        that takes about REP_TARGET_S. Rounds of one repetition of every
        phase, interleaved so that each phase sees the same spread of host
        speed, then run until ``deadline`` and at least MIN_REPS times.
        Traced: one pass of each, recorded under its trace_phase.
        """
        out, rounds = {}, []
        for name, fn, arg_sets, trace_phase in specs:
            self.ledger.op(len(arg_sets))
            if self.tracer is not None:
                one_pass = functools.partial(_one_pass, fn, arg_sets)
                out[name] = (one_pass() if trace_phase is None
                             else self.tracer.run(trace_phase, one_pass))
                continue
            phase = Phase(name)
            out[name] = [timed(phase, functools.partial(fn, *args)) for args in arg_sets]
            if statistics.median(phase.raw) >= REP_TARGET_S:
                work = (None if len(phase.raw) >= MIN_REPS
                        else functools.partial(_rotate, fn, itertools.cycle(arg_sets)))
            else:
                batch = max(1, math.ceil(REP_TARGET_S / sum(phase.raw)))
                phase = Phase(name, per_call=batch * len(arg_sets))
                work = functools.partial(_repeat, fn, arg_sets, batch)
            self.phases[name] = phase
            if work is not None:
                rounds.append((phase, work))
        last = 0.0
        while rounds and (min(len(p.raw) for p, _ in rounds) < MIN_REPS
                          or deadline - time.perf_counter() > last):
            r0 = time.perf_counter()
            for phase, work in rounds:
                timed(phase, work)
                self.ledger.op(phase.per_call)
            last = time.perf_counter() - r0
        return out

    # -- fit -----------------------------------------------------------------

    def fit_all(self, inputs: Inputs) -> list:
        fit, params = self.icrf.fit, inputs.params
        if self.tracer is not None:
            self.ledger.op(len(inputs.datasets))
            return [self.tracer.run("fit", fit, d, params) for d in inputs.datasets]
        phase = self.phases["fit"] = Phase("fit")
        models = []
        for d in inputs.datasets:
            models.append(timed(phase, functools.partial(fit, d, params)))
            self.ledger.op()
        return models

    def check_fits(self, inputs: Inputs, models):
        """Checks the truth against the program's, and every fit's k_opt
        and (quasi-honest leaves) leaf NPMLE optimality."""
        icrf, w, led = self.icrf, self.w, self.ledger
        x0 = inputs.queries[:3]
        ours = checks.truth(w.scenario, x0, inputs.grid)
        theirs = np.vstack([icrf.truth_eval(w.scenario, inputs.grid, x) for x in x0])
        led.check("truth agrees with icrf.truth_eval",
                  np.allclose(ours, theirs, rtol=0, atol=1e-12))
        for j, (d, m) in enumerate(zip(inputs.datasets, models)):
            err = checks.k_opt_error(m.oob_errors, m.k_opt)
            led.check(f"fit[{j}] k_opt", not err, err)
            if w.prediction == "quasi_honest":
                gap, mass, count = checks.leaf_kkt_gaps(m, d.lefts, d.rights, d.tau)
                self.layer["fit.npmle.kkt_gap_max"] = max(
                    gap, self.layer.get("fit.npmle.kkt_gap_max", 0.0))
                led.check(f"fit[{j}] leaf KKT", gap <= checks.KKT_EPS,
                          f"max_j d_j - 1 = {gap:.3g} over {count} leaves")
                led.check(f"fit[{j}] leaf mass", mass <= checks.MASS_TOL,
                          f"|sum p - 1| = {mass:.3g}")

    def check_accuracy(self, inputs: Inputs, models, rows_by_model) -> tuple[float, float]:
        """Checks that the fits' smoothed predictions beat the smoothed
        marginal; returns (eps_int, eps_sup) averaged over fits.

        The check is on the averages: a forest of one tree per fold can
        lose to the marginal on a single training set (1 of 50 fits on
        fit-exploit did, 0.637 against 0.631), as a consistent estimator
        may at a small size."""
        icrf = self.icrf
        s0 = checks.truth(self.w.scenario, inputs.queries, inputs.grid)
        for m, rows in zip(models, rows_by_model):
            base = icrf.smooth_curve(icrf.curves.refine_uniform(m.initial_marginal), m.h, m.tau)
            base_rows = np.broadcast_to(base.eval(inputs.grid), rows.shape)
            e_int, e_sup = checks.oracle_errors(rows, s0, inputs.grid)
            self.accuracy.append((e_int, e_sup, checks.oracle_errors(base_rows, s0, inputs.grid)[0]))
        e_int, e_sup, b_int = (float(np.mean(v)) for v in zip(*self.accuracy))
        self.ledger.check("forest beats the marginal", e_int < b_int,
                          f"mean eps_int {e_int:.4f} vs marginal {b_int:.4f}")
        return e_int, e_sup

    # -- serve ---------------------------------------------------------------

    def serve(self, inputs: Inputs, models) -> list:
        """Time save, load and predict on every model and check their
        outputs; return the smoothed 1000-query predictions."""
        icrf, led, w = self.icrf, self.ledger, self.w
        os.makedirs(OUT_DIR, exist_ok=True)
        tag = f"{w.name}-{self.seed}-{os.getpid()}"
        paths = [os.path.join(OUT_DIR, f"{tag}-{j}.icrf") for j in range(len(models))]
        again = os.path.join(OUT_DIR, f"{tag}-again.icrf")
        q1, qk, grid = inputs.queries[:1], inputs.queries, inputs.grid
        try:
            specs = [("save", icrf.save_model, list(zip(models, paths)), None),
                     ("load", icrf.load_model, [(p,) for p in paths], None)]
            for key in SERVE_PHASES[2:]:
                X = q1 if key.startswith("predict_1q") else qk
                is_smoothed = key.endswith("smoothed")
                fn = functools.partial(icrf.predict, smoothed=is_smoothed)
                specs.append((key, fn, [(m, X, grid) for m in models], "predict"))
            out = self.measure(specs, self.deadline)
            saved = []
            for p in paths:
                with open(p, "rb") as fh:
                    saved.append(fh.read())
            loaded = out.pop("load")
            out.pop("save")
            self.layer["serialize.file_bytes"] = sum(len(b) for b in saved)
            self.layer["serialize.manifest_entries"] = sum(
                checks.manifest_entries(p) for p in paths)

            for j, model in enumerate(models):
                rows = {key[len("predict_"):]: out[key][j] for key in out}
                for key, r in rows.items():
                    err = checks.curve_shape_error(r, smoothed=key.endswith("smoothed"))
                    led.check(f"model {j} predict {key} curves", not err, err)
                expected = {}
                for kind in ("smoothed", "raw"):
                    led.check(f"model {j} 1-query {kind} equals row 0 of 1000-query",
                              np.array_equal(rows[f"1q_{kind}"][0], rows[f"1kq_{kind}"][0]))
                    if kind == "raw" or j < LOADED_SMOOTHED:
                        expected[kind] = rows[f"1kq_{kind}"]
                check_round_trip(icrf, led, loaded[j], saved[j], again, qk, grid, expected)
                ours = checks.raw_forest_prediction(model.folds[model.k_opt - 1], qk, grid)
                led.check(f"model {j} raw predict matches own routing and interpolation",
                          np.allclose(ours, rows["1kq_raw"], rtol=0, atol=1e-12),
                          f"max diff {np.abs(ours - rows['1kq_raw']).max():.3g}")
        finally:
            for p in paths + [again]:
                if os.path.exists(p):
                    os.unlink(p)
        return out["predict_1kq_smoothed"]


def _one_pass(fn, arg_sets):
    return [fn(*args) for args in arg_sets]


def _repeat(fn, arg_sets, batch: int):
    for _ in range(batch):
        for args in arg_sets:
            fn(*args)


def _rotate(fn, arg_cycle):
    fn(*next(arg_cycle))


def check_round_trip(icrf, ledger, loaded, saved: bytes, path, queries, grid, expected):
    """A loaded model must predict exactly what the saved one did
    (``expected[kind]``) and save back to the bytes it was read from."""
    for kind, rows in expected.items():
        ledger.op()
        again = icrf.predict(loaded, queries, grid, smoothed=kind == "smoothed")
        ledger.check(f"loaded model predicts the same ({kind})", np.array_equal(again, rows))
    ledger.op()
    icrf.save_model(loaded, path)
    with open(path, "rb") as fh:
        ledger.check("save -> load -> save is byte-identical", fh.read() == saved)


def execute(icrf, import_s: float, src: str, w: Workload, seed: int, deadline: float,
            trace: bool, small: bool = False, setup_count: int = SETUP_SAMPLES) -> dict:
    """Run one workload in a process that took ``import_s`` to import
    icrf; return the result object."""
    from tracing import Tracer

    inputs, own = timed_setup(icrf, import_s, w, seed)
    setup = [own] + setup_samples(src, w, seed, small, setup_count - 1)
    if trace:
        with Tracer() as tracer:
            run = Run(icrf, w, seed, deadline, tracer)
            models = run.fit_all(inputs)
            run.check_fits(inputs, models)
            run.check_accuracy(inputs, models, run.serve(inputs, models))
        metrics = {**tracer.layer_metrics(), **run.layer}
        metrics.setdefault("fit.npmle.kkt_gap_max", 0.0)
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
        metrics["setup.generate_s"] = statistics.median(s["generate_s"] for s in setup)
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
        units["fit.npmle.kkt_gap_max"] = "1"
        units["serialize.file_bytes"] = "bytes"
    else:
        run = Run(icrf, w, seed, deadline)
        models = run.fit_all(inputs)
        run.check_fits(inputs, models)
        eps_int, eps_sup = run.check_accuracy(inputs, models, run.serve(inputs, models))
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "fit_s": run.phases["fit"].estimate(),
            "eps_int": eps_int,
            "eps_sup": eps_sup,
            **{f"{name}_s": run.phases[name].estimate() for name in SERVE_PHASES},
        }
        units = {k: "s" for k in metrics}
        units["eps_int"] = units["eps_sup"] = "1"
        for p in run.phases.values():
            print(json.dumps({"phase": p.name, **p.summary()}))
        print(json.dumps({"setup": setup}))
        print(json.dumps({"accuracy": [[round(v, 5) for v in a] for a in run.accuracy]}))
    for msg in run.ledger.wrong:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    return {
        "correct": run.ledger.correct,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
