"""Lossless, byte-deterministic model files.

Layout: MAGIC, little-endian uint64 header length, JSON header (sorted
keys; scalars, curve/tree structure counts, array manifest), then the
raw array bytes concatenated in manifest order. Fixed dtypes and sorted
keys make identical models produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import numpy as np

from .curves import StepSurvival
from .exceptions import ParseError
from .forest import ForestFold, ForestParams, IcrfModel
from .splits import SplitRule
from .tree import Leaf, Tree, TreeParams

MAGIC = b"ICRFMDL1"


def _params_dict(p: ForestParams) -> dict:
    # n_jobs is an execution detail, not a model property; keeping it
    # out makes files byte-identical across worker counts
    d = dataclasses.asdict(p)
    del d["n_jobs"]
    return d


def _params_from_dict(d: dict) -> ForestParams:
    t = d["tree"]
    # named keys, so files that still carry a tree "rng_seed" load too
    tree = TreeParams(mtry=t["mtry"], n_min=t["n_min"], prediction=t["prediction"],
                      rule=SplitRule(**t["rule"]))
    return ForestParams(**{**d, "tree": tree})


def _flatten_curves(curves: list[StepSurvival]):
    times = np.concatenate([c.times for c in curves]) if curves else np.empty(0)
    values = np.concatenate([c.values for c in curves]) if curves else np.empty(0)
    offsets = np.cumsum([0] + [c.times.size for c in curves])
    rates = np.asarray(
        [np.nan if c.tail_rate is None else c.tail_rate for c in curves]
    )
    return times, values, offsets.astype(np.int64), rates


def _rebuild_curves(times, values, offsets, rates) -> list[StepSurvival]:
    out = []
    for j in range(offsets.size - 1):
        a, b = offsets[j], offsets[j + 1]
        rate = None if np.isnan(rates[j]) else float(rates[j])
        out.append(StepSurvival(times[a:b], values[a:b], tail_rate=rate))
    return out


def save_model(model: IcrfModel, path: str):
    arrays: list[tuple[str, np.ndarray]] = []

    def add(name, arr, dtype):
        arrays.append((name, np.ascontiguousarray(arr, dtype=dtype)))

    add("marginal_times", model.initial_marginal.times, "<f8")
    add("marginal_values", model.initial_marginal.values, "<f8")

    folds_meta = []
    for fold in model.folds:
        k = fold.fold_index
        add(f"f{k}_oob", fold.per_tree_oob, "<f8")
        trees_meta = []
        for b, tree in enumerate(fold.trees):
            pre = f"f{k}_t{b}_"
            add(pre + "feature", tree.feature, "<i4")
            add(pre + "cutoff", tree.cutoff, "<f8")
            add(pre + "left", tree.left, "<i4")
            add(pre + "right", tree.right, "<i4")
            add(pre + "leafidx", tree.leaf_idx, "<i4")
            add(pre + "inbag", tree.inbag_ids, "<i8")
            times, values, offsets, rates = _flatten_curves(
                [leaf.curve for leaf in tree.leaves]
            )
            add(pre + "ltimes", times, "<f8")
            add(pre + "lvalues", values, "<f8")
            add(pre + "loffsets", offsets, "<i8")
            add(pre + "lrates", rates, "<f8")
            members = (
                np.concatenate([leaf.member_ids for leaf in tree.leaves])
                if tree.leaves
                else np.empty(0)
            )
            moffsets = np.cumsum([0] + [leaf.member_ids.size for leaf in tree.leaves])
            add(pre + "lmembers", members, "<i8")
            add(pre + "lmoffsets", moffsets, "<i8")
            trees_meta.append({"n_leaves": len(tree.leaves)})
        folds_meta.append({"fold_index": k, "trees": trees_meta})

    header = {
        "format": MAGIC.decode(),
        "params": _params_dict(model.params),
        "feature_names": model.feature_names,
        "tau": model.tau,
        "h": model.h,
        "k_opt": model.k_opt,
        "marginal_tail_rate": model.initial_marginal.tail_rate,
        "folds": folds_meta,
        "manifest": [
            [name, str(arr.dtype), list(arr.shape)] for name, arr in arrays
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.uint64(len(blob)).tobytes())
            fh.write(blob)
            for _, arr in arrays:
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path: str) -> IcrfModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(MAGIC) + 8
    if blob[: len(MAGIC)] != MAGIC or len(blob) < start:
        raise ParseError(f"{path}: not a model file")
    (hlen,) = np.frombuffer(blob[len(MAGIC) : start], dtype="<u8")
    try:
        header = json.loads(blob[start : start + int(hlen)].decode())
    except ValueError:  # also covers invalid UTF-8
        raise ParseError(f"{path}: malformed or truncated header") from None
    try:
        return _model_from(header, blob, start + int(hlen), path)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # valid JSON, but a key is missing or a value has the wrong type
        raise ParseError(f"{path}: malformed header: {exc!r}") from None


def _model_from(header: dict, blob: bytes, pos: int, path: str) -> IcrfModel:
    """The model a parsed header describes, its arrays read from ``blob``
    starting at ``pos``."""
    arrays = {}
    for name, dtype, shape in header["manifest"]:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * np.dtype(dtype).itemsize
        if min(shape, default=0) < 0 or pos + nbytes > len(blob):
            raise ParseError(f"{path}: bad shape or truncated in array {name!r}")
        arrays[name] = np.frombuffer(blob, dtype, count, pos).reshape(shape).copy()
        pos += nbytes

    marginal = StepSurvival(
        arrays["marginal_times"],
        arrays["marginal_values"],
        tail_rate=header["marginal_tail_rate"],
    )
    folds = []
    for fmeta in header["folds"]:
        k = fmeta["fold_index"]
        trees = []
        for b, _tmeta in enumerate(fmeta["trees"]):
            pre = f"f{k}_t{b}_"
            curves = _rebuild_curves(
                arrays[pre + "ltimes"],
                arrays[pre + "lvalues"],
                arrays[pre + "loffsets"],
                arrays[pre + "lrates"],
            )
            moff = arrays[pre + "lmoffsets"]
            members = arrays[pre + "lmembers"]
            leaves = [Leaf(curves[j], members[moff[j] : moff[j + 1]]) for j in range(len(curves))]
            trees.append(
                Tree(
                    arrays[pre + "feature"],
                    arrays[pre + "cutoff"],
                    arrays[pre + "left"],
                    arrays[pre + "right"],
                    arrays[pre + "leafidx"],
                    leaves,
                    arrays[pre + "inbag"],
                )
            )
        folds.append(ForestFold(k, trees, arrays[f"f{k}_oob"]))

    return IcrfModel(
        params=_params_from_dict(header["params"]),
        feature_names=list(header["feature_names"]),
        tau=header["tau"],
        h=header["h"],
        initial_marginal=marginal,
        folds=folds,
        k_opt=header["k_opt"],
    )
