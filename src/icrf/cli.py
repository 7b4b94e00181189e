"""Command-line surface: fit, predict, simulate, evaluate, importance,
bench. Every command is deterministic under --seed; outputs are CSV
tables written atomically."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from .bench import ExperimentSpec, run_experiment
from .dataio import (
    _fmt,
    atomic_write,
    load_csv,
    parse_config,
    read_key_values,
    read_truth_csv,
    write_csv,
    write_truth_csv,
)
from .exceptions import IcrfError, MissingTruth, ParseError
from .forest import (
    METRICS,
    ForestParams,
    fit,
    imse1_on_rows,
    imse2_on_rows,
    monitor_grid,
    predict,
    variable_importance,
)
from .metrics import oracle_errors
from .serialize import load_model, save_model
from .simgen import Scenario, generate, truth_eval
from .splits import SplitRule
from .tree import TreeParams

TRUTH_GRID_N = 1001
MAX_GRID_N = 100_000  # the most points a --grid may ask for


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ParseError(f"grid must be start:stop:step, got {spec!r}") from None
    if not np.all(np.isfinite([start, stop, step])) or step <= 0 or stop < start:
        raise ParseError(f"bad grid spec {spec!r}")
    span = (stop - start) / step  # inf when the step is tiny against the range
    if not span <= MAX_GRID_N - 1:
        raise ParseError(f"grid {spec!r} asks for {span + 1:.6g} points, more than {MAX_GRID_N}")
    return np.linspace(start, stop, int(round(span)) + 1)


def _given(cls, cfg: dict) -> dict:
    """The config values named after fields of ``cls``; fields the
    config leaves out keep their defaults."""
    return {f.name: cfg[f.name] for f in dataclasses.fields(cls) if f.name in cfg}


def _forest_params(cfg: dict, n: int, seed: int | None, n_jobs: int | None) -> ForestParams:
    cfg = dict(cfg)
    if "rule" in cfg:
        cfg["kind"] = cfg.pop("rule")
    if "s" in cfg:
        cfg["subsample"] = cfg["s"] / n
    if seed is not None:
        cfg["seed"] = seed
    if n_jobs is not None:
        cfg["n_jobs"] = n_jobs
    tree = TreeParams(**_given(TreeParams, cfg), rule=SplitRule(**_given(SplitRule, cfg)))
    return ForestParams(**_given(ForestParams, cfg), tree=tree)


def cmd_fit(args) -> int:
    cfg = parse_config(args.config) if args.config else {}
    tau = args.tau if args.tau is not None else cfg.get("tau")
    if tau is None:
        raise ParseError("tau must be given via --tau or the config file")
    data = load_csv(args.data, tau=tau, exact_time_mode=args.exact_times)
    params = _forest_params(cfg, data.n, args.seed, args.jobs)
    model = fit(data, params)
    save_model(model, args.out)
    lines = [f"fold,oob_{params.monitor_metric},is_k_opt"]
    for fold in model.folds:
        mark = 1 if fold.fold_index == model.k_opt else 0
        lines.append(f"{fold.fold_index},{_fmt(fold.oob_error)},{mark}")
    atomic_write(args.report, "\n".join(lines) + "\n")
    print(f"fitted {params.n_fold} folds x {params.n_tree} trees; k_opt={model.k_opt}")
    return 0


def _load_query(path: str, p: int) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ParseError(f"{path}: empty query file, expected a header row")
        try:
            # a blank line, such as one after the last row, is no query
            rows = [[float(v) for v in row] for row in reader if row]
        except ValueError as e:
            raise ParseError(f"{path}:{reader.line_num}: {e}") from None
    if any(len(r) != p for r in rows):
        raise ParseError(f"{path}: expected {p} covariate columns")
    # a header-only file is zero queries
    return np.asarray(rows, dtype=float).reshape(len(rows), p)


def cmd_predict(args) -> int:
    model = load_model(args.model)
    x = _load_query(args.query, len(model.feature_names))
    grid = _parse_grid(args.grid)
    values = predict(model, x, grid, fold=args.fold, smoothed=args.smoothed)
    lines = ["query_id,t,survival"]
    for i in range(x.shape[0]):
        for t, v in zip(grid, values[i]):
            lines.append(f"{i},{_fmt(t)},{_fmt(v)}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {x.shape[0]} x {grid.size} curve points to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    sc = Scenario(id=args.scenario, n=args.n, M=args.M, seed=args.seed)
    sim = generate(sc)
    write_csv(sim.dataset, args.out)
    if args.truth:
        grid = np.linspace(0.0, sc.tau, TRUTH_GRID_N)
        s0 = np.vstack([truth_eval(sc.id, grid, x) for x in sim.dataset.X])
        write_truth_csv(args.truth, sim.latent_times, s0, grid)
    print(f"scenario {sc.id}: wrote {sim.dataset.n} rows, {sim.dataset.p} covariates")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    data = load_csv(args.test, tau=model.tau)
    mgrid = monitor_grid(model.tau)
    rows = predict(model, data.X, mgrid, smoothed=True)
    report = [
        ("imse1", imse1_on_rows(rows, data.lefts, data.rights, model.tau, mgrid), data.n),
        ("imse2", imse2_on_rows(rows, data.lefts, data.rights, model.tau, mgrid), data.n),
    ]
    if args.truth:
        _, s0, grid = read_truth_csv(args.truth)
        if s0.shape[0] != data.n:
            raise ParseError("truth sidecar row count does not match the test set")
        e_int, e_sup = oracle_errors(predict(model, data.X, grid, smoothed=True), s0, grid)
        report += [("eps_int", e_int, data.n), ("eps_sup", e_sup, data.n)]
    elif args.require_truth:
        raise MissingTruth("oracle metrics requested but no --truth sidecar given")
    lines = ["metric,value,n"] + [f"{m},{_fmt(v)},{n}" for m, v, n in report]
    atomic_write(args.out, "\n".join(lines) + "\n")
    for m, v, _ in report:
        print(f"{m} = {v:.6f}")
    return 0


def cmd_importance(args) -> int:
    model = load_model(args.model)
    data = load_csv(args.data, tau=model.tau)
    res = variable_importance(
        model, data, n_perm=args.nperm, metric=args.metric, seed=args.seed
    )
    lines = ["feature,raw,rescaled"]
    for name, r, s in zip(model.feature_names, res.raw, res.rescaled):
        lines.append(f"{name},{_fmt(float(r))},{_fmt(float(s))}")
    lines.append(f"_multiplier,{_fmt(res.multiplier)},1")
    atomic_write(args.out, "\n".join(lines) + "\n")
    top = model.feature_names[int(np.argmax(res.raw))]
    print(f"top feature: {top} (multiplier {res.multiplier:.6g})")
    return 0


BENCH_KEYS = {
    "scenarios": lambda v: tuple(int(x) for x in v.split(",")),
    "m_values": lambda v: tuple(int(x) for x in v.split(",")),
    "n_values": lambda v: tuple(int(x) for x in v.split(",")),
    "rules": lambda v: tuple(x.strip() for x in v.split(",")),
    "predictions": lambda v: tuple(x.strip() for x in v.split(",")),
    "n_replicates": int,
    "seed": int,
    "n_tree": int,
    "n_fold": int,
    "n_min": int,
    "mtry": int,
    "subsample": float,
    "n_test": int,
    "grid_resolution": int,
    "n_jobs": int,
    "glr_sign": str,
    "monitor_metric": str,
}


def cmd_bench(args) -> int:
    kw = read_key_values(args.spec, BENCH_KEYS)
    if args.jobs is not None:
        kw["n_jobs"] = args.jobs
    spec = ExperimentSpec(out_dir=args.out, **kw)
    rows = run_experiment(spec)
    print(f"bench: {len(rows)} rows -> {args.out}/raw.csv, summary.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="icrf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a recursive forest")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--exact-times", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="emit survival curves for queries")
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--grid", required=True,
                   help=f"start:stop:step, at most {MAX_GRID_N} points")
    p.add_argument("--smoothed", action="store_true")
    p.add_argument("--fold", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="draw a benchmark scenario dataset")
    p.add_argument("--scenario", type=int, required=True)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="error metrics of a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--truth", default=None)
    p.add_argument("--require-truth", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("importance", help="permutation variable importance")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--nperm", type=int, default=10)
    p.add_argument("--metric", default="imse1", choices=METRICS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("bench", help="replicated experiment harness")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IcrfError, OSError) as exc:
        # an unreadable or missing file is bad input too
        code = exc.code if isinstance(exc, IcrfError) else "io_error"
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
