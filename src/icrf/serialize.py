"""Lossless, byte-deterministic model files.

Layout: MAGIC, little-endian uint64 header length, JSON header (sorted
keys; scalars, curve/tree structure counts, array manifest), then the
raw array bytes concatenated in manifest order. Fixed dtypes and sorted
keys make identical models produce identical bytes.

Each tree is stored as the arrays of ``TREE_ARRAYS``: its nodes, its
in-bag ids and its ``curves.LeafStore``, which ``save_model`` writes and
``load_model`` reads back as they are, with no object per leaf. Loading
checks every tree in one vectorized pass per array, and a file that fails
a check raises ``ParseError`` naming the array: the node arrays must
route every row to a leaf (a split's children come after it, so routing
ends), ``leafidx`` must number the leaves one to one, the offsets must
delimit them, the in-bag ids must be non-negative and strictly increasing
and the leaves' members must partition them, and each leaf curve must
pass ``StepSurvival``'s checks.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import numpy as np

from .curves import LeafStore, StepSurvival
from .exceptions import InvariantViolation, ParseError
from .forest import ForestFold, ForestParams, IcrfModel
from .splits import SplitRule
from .tree import Tree, TreeParams

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


# the arrays of each tree, in file order, with their dtypes: the nodes,
# the in-bag ids, then the tree's LeafStore
TREE_ARRAYS = {
    "feature": "<i4", "cutoff": "<f8", "left": "<i4", "right": "<i4", "leafidx": "<i4",
    "inbag": "<i8", "ltimes": "<f8", "lvalues": "<f8", "loffsets": "<i8", "lrates": "<f8",
    "lmembers": "<i8", "lmoffsets": "<i8",
}


def _tree_arrays(tree: Tree) -> tuple:
    s = tree.store
    return (tree.feature, tree.cutoff, tree.left, tree.right, tree.leaf_idx, tree.inbag_ids,
            s.times, s.values, s.offsets, s.rates, s.members, s.member_offsets)


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
            for (name, dtype), arr in zip(TREE_ARRAYS.items(), _tree_arrays(tree)):
                add(f"f{k}_t{b}_{name}", arr, dtype)
            trees_meta.append({"n_leaves": tree.n_leaves})
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
        count = math.prod(shape)  # a Python product: np.prod costs more than the read
        nbytes = count * np.dtype(dtype).itemsize
        if min(shape, default=0) < 0 or pos + nbytes > len(blob):
            raise ParseError(f"{path}: bad shape or truncated in array {name!r}")
        arrays[name] = np.frombuffer(blob, dtype, count, pos).reshape(shape).copy()
        pos += nbytes

    try:
        marginal = StepSurvival(
            arrays["marginal_times"],
            arrays["marginal_values"],
            tail_rate=header["marginal_tail_rate"],
        )
    except InvariantViolation as exc:
        raise ParseError(f"{path}: arrays 'marginal_times', 'marginal_values': {exc}") from None
    p = len(header["feature_names"])
    folds = []
    for fmeta in header["folds"]:
        k = fmeta["fold_index"]
        trees = [_tree_from(arrays, f"f{k}_t{b}_", tmeta["n_leaves"], p, path)
                 for b, tmeta in enumerate(fmeta["trees"])]
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


def _check(ok, path: str, name: str, what: str):
    if not ok:
        raise ParseError(f"{path}: array {name!r}: {what}")


def _tree_from(arrays: dict, pre: str, n_leaves: int, p: int, path: str) -> Tree:
    """The tree stored in the arrays named ``pre`` + TREE_ARRAYS, with
    nodes that route every row to one of its ``n_leaves`` leaves."""
    for name, dtype in TREE_ARRAYS.items():
        arr = arrays[pre + name]
        _check(arr.dtype == np.dtype(dtype) and arr.ndim == 1, path, pre + name,
               f"must be 1-d {dtype}")
    feature, cutoff, left, right, leafidx, inbag = (
        arrays[pre + name] for name in ("feature", "cutoff", "left", "right", "leafidx", "inbag"))
    nodes = feature.size
    for name, arr in (("cutoff", cutoff), ("left", left), ("right", right), ("leafidx", leafidx)):
        _check(arr.size == nodes, path, pre + name, f"must have one entry per node ({nodes})")
    _check(nodes >= 1 and np.all((feature >= -1) & (feature < p)), path, pre + "feature",
           f"must be -1 (a leaf) or a feature in [0, {p})")
    inner = np.flatnonzero(feature >= 0)
    # children after their parent: routing moves down and stops
    for name, child in (("left", left), ("right", right)):
        _check(np.all((child[inner] > inner) & (child[inner] < nodes)), path, pre + name,
               "must name a later node at every split")
    _check(np.array_equal(np.sort(leafidx[feature < 0]), np.arange(n_leaves)), path,
           pre + "leafidx", f"must number the leaf nodes 0..{n_leaves - 1}, one each")
    _check(inbag.size == 0 or (inbag[0] >= 0 and (inbag[1:] > inbag[:-1]).all()), path,
           pre + "inbag", "ids must be non-negative and strictly increasing")
    store = _leaf_store(arrays, pre, n_leaves, path)
    members = np.sort(store.members)
    _check(members.size == inbag.size and (members == inbag).all(), path, pre + "lmembers",
           "the leaves' members must partition the in-bag ids")
    return Tree(feature, cutoff, left, right, leafidx, store, inbag)


def _leaf_store(arrays: dict, pre: str, n_leaves: int, path: str) -> LeafStore:
    """The LeafStore of ``n_leaves`` leaves in the arrays named ``pre`` +
    ltimes, ..., lmoffsets, checked in one vectorized pass: offsets that
    delimit the leaves, and curves that StepSurvival would accept one by
    one, their values clipped to [0, 1] the same way."""
    times, values, offsets, rates, members, moffsets = (
        arrays[pre + name]
        for name in ("ltimes", "lvalues", "loffsets", "lrates", "lmembers", "lmoffsets"))
    for name, off, data in (("loffsets", offsets, times), ("lmoffsets", moffsets, members)):
        _check(off.size == n_leaves + 1 and off[0] == 0 and off[-1] == data.size
               and np.all(off[1:] >= off[:-1]), path, pre + name,
               f"must rise from 0 to {data.size} in {n_leaves + 1} entries")
    _check(values.size == times.size, path, pre + "lvalues", "must have one value per knot")
    _check(rates.size == n_leaves, path, pre + "lrates", "must have one rate per leaf")
    # StepSurvival's checks on all curves at once; the differences within
    # a curve are those that do not cross the start of the next
    _check(np.all((times > 0.0) & (times < np.inf)), path, pre + "ltimes",
           "knot times must be finite and > 0")
    within = np.ones(max(times.size - 1, 0), dtype=bool)
    starts = offsets[1:-1]
    within[starts[(starts > 0) & (starts < times.size)] - 1] = False
    _check(np.all(np.diff(times)[within] > 0.0), path, pre + "ltimes",
           "knot times must be strictly increasing within each curve")
    _check(np.all((values >= -1e-12) & (values <= 1.0 + 1e-12)), path, pre + "lvalues",
           "values must lie in [0, 1]")
    _check(not np.any(np.diff(values)[within] > 1e-12), path, pre + "lvalues",
           "values must be non-increasing within each curve")
    _check(np.all(np.isnan(rates) | (rates >= 0.0)), path, pre + "lrates",
           "tail rates must be >= 0 (NaN: no tail)")
    return LeafStore(times, np.clip(values, 0.0, 1.0), offsets, rates, members, moffsets)
