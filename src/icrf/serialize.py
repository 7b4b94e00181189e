"""Lossless, byte-deterministic model files.

Layout: MAGIC, little-endian uint64 header length, JSON header (sorted
keys; scalars, curve/tree structure counts, array manifest), then the
raw array bytes concatenated in manifest order. Fixed dtypes and sorted
keys make identical models produce identical bytes.

Each tree is stored as its own arrays (``TREE_ARRAYS``): its nodes but
the right child (``left + 1``) and its leaves' ``curves.LeafStore`` but
the tail rates (NaN), cut from its fold's table
(``forest.ForestFold.tree_columns``); ``load_model`` builds each fold's
table back, with no object per tree or per leaf.

Loading checks the whole model in one pass. Each array is read from the
file straight into the concatenation of its kind over all trees of all
folds, so no copy of the file is held; each check runs once on a
concatenation, with per-tree limits taken from the per-tree sizes; and
each fold's table holds slices of the checked arrays. A file that fails
a check raises ``ParseError`` naming the array of the tree at fault,
``f{k}_t{b}_{name}``. The node arrays must route every row to a leaf (a
split's left child is a later node whose next node, the right child, is
still in the tree, so routing ends, and its cut-off is finite),
``leafidx`` must number the leaves one to one, the offsets must delimit
them, a tree's members (its in-bag ids) must be non-negative, below the
key limit and distinct, and each leaf curve must pass ``StepSurvival``'s
checks. Each fold's ``f{k}_oob`` holds
one OOB error per tree, NaN or >= 0, and the marginal curve is float64.
The header must list its folds as 1, 2, ... in order, its manifest must
name exactly the arrays of the header's folds and trees, in file order,
and the file must end with the last array. ``tau`` and ``h`` must be
finite and > 0, ``k_opt`` must name a stored fold, the training data's
``data_sha256`` must be 64 lowercase hex digits and the params must pass
their own checks. A file of format 1 is not a model file.
"""

from __future__ import annotations

import json
import math
import os
import re
from itertools import accumulate, zip_longest

import numpy as np

from .curves import LeafStore, StepSurvival
from .dataio import atomic_write
from .exceptions import IcrfError, InvariantViolation, ParseError
from .forest import ForestFold, ForestParams, IcrfModel
from .smooth import check_bandwidth
from .splits import SplitRule
from .tree import TreeParams

MAGIC = b"ICRFMDL2"


def _params_dict(p: ForestParams) -> dict:
    # n_jobs is an execution detail, not a model property; keeping it out makes
    # files byte-identical across worker counts (vars: asdict's deep copy is slow)
    d = {**vars(p), "tree": {**vars(p.tree), "rule": dict(vars(p.tree.rule))}}
    del d["n_jobs"]
    return d


def _params_from_dict(d: dict) -> ForestParams:
    t = d["tree"]
    return ForestParams(**{**d, "tree": TreeParams(**{**t, "rule": SplitRule(**t["rule"])})})


# the arrays of each tree, in file order, with their dtypes: the nodes,
# then the tree's LeafStore but its rates (``ForestFold.tree_columns``)
TREE_ARRAYS = {
    "feature": "<i4", "cutoff": "<f8", "left": "<i4", "leafidx": "<i4", "ltimes": "<f8",
    "lvalues": "<f8", "loffsets": "<i8", "lmembers": "<i8", "lmoffsets": "<i8",
}
# the arrays of a tree's LeafStore
LEAF_ARRAYS = ("ltimes", "lvalues", "loffsets", "lmembers", "lmoffsets")
# the manifest's name of each dtype save_model writes: str(np.dtype(key))
DTYPE_NAMES = {"<i4": "int32", "<i8": "int64", "<f8": "float64"}


def save_model(model: IcrfModel, path: str):
    manifest, arrays = [], []

    def add(name, arr, dtype):
        arrays.append(np.ascontiguousarray(arr, dtype=dtype))
        manifest.append([name, DTYPE_NAMES[dtype], list(arrays[-1].shape)])

    add("marginal_times", model.initial_marginal.times, "<f8")
    add("marginal_values", model.initial_marginal.values, "<f8")

    folds_meta = []
    for fold in model.folds:
        k = fold.fold_index
        add(f"f{k}_oob", fold.per_tree_oob, "<f8")
        # each kind once in its dtype, then cut: a tree's arrays are slices
        kinds = [(name, np.ascontiguousarray(arr, dtype=dtype), cuts, DTYPE_NAMES[dtype])
                 for (name, dtype), (arr, cuts) in zip(TREE_ARRAYS.items(), fold.tree_columns())]
        for t in range(fold.n_trees):
            for name, arr, cuts, dname in kinds:
                arrays.append(arr[cuts[t]:cuts[t + 1]])
                manifest.append([f"f{k}_t{t}_{name}", dname, [cuts[t + 1] - cuts[t]]])
        folds_meta.append({"fold_index": k, "trees": [
            {"n_leaves": n} for n in np.diff(fold.leaf_start).tolist()]})

    header = {
        "format": MAGIC.decode(),
        "params": _params_dict(model.params),
        "feature_names": model.feature_names,
        "tau": model.tau,
        "h": model.h,
        "k_opt": model.k_opt,
        "data_sha256": model.data_sha256,
        "marginal_tail_rate": model.initial_marginal.tail_rate,
        "folds": folds_meta,
        "manifest": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # the arrays in one write: many small writes cost more
    atomic_write(path, (MAGIC, np.uint64(len(blob)).tobytes(), blob, b"".join(arrays)))


def load_model(path: str) -> IcrfModel:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(len(MAGIC) + 8)
        if lead[: len(MAGIC)] != MAGIC or len(lead) < len(MAGIC) + 8:
            raise ParseError(f"{path}: not a model file")
        hlen = int.from_bytes(lead[len(MAGIC) :], "little")
        if hlen > size - len(lead):
            raise ParseError(f"{path}: malformed or truncated header")
        try:
            header = json.loads(fh.read(hlen).decode())
        except ValueError:  # also covers invalid UTF-8
            raise ParseError(f"{path}: malformed or truncated header") from None
        try:
            return _model_from(header, fh, size - len(lead) - hlen, path)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # valid JSON, but a key is missing or a value has the wrong type
            raise ParseError(f"{path}: malformed header: {exc!r}") from None


def _model_from(header: dict, fh, nbytes: int, path: str) -> IcrfModel:
    """The model a parsed header describes, its arrays the ``nbytes`` bytes
    left in ``fh``."""
    prefixes, n_leaves, n_trees = _layout(header, path)
    marginal_times, marginal_values, oob, kinds = _read_kinds(
        header["manifest"], fh, nbytes, prefixes, n_trees, path)
    try:
        marginal = StepSurvival(marginal_times.cat, marginal_values.cat,
                                tail_rate=header["marginal_tail_rate"])
    except InvariantViolation as exc:
        raise ParseError(f"{path}: header 'marginal_tail_rate', arrays 'marginal_times', "
                         f"'marginal_values': {exc}") from None
    oob.check_sizes(n_trees, lambda k: f"must have one entry per tree ({n_trees[k]})")
    oob.check(np.isnan(oob.cat) | (oob.cat >= 0.0), "OOB errors must be >= 0 (NaN: none)")
    folds = _folds_from(kinds, n_leaves, n_trees, oob.cat, len(header["feature_names"]))

    try:
        params = _params_from_dict(header["params"])
    except IcrfError as exc:
        raise ParseError(f"{path}: header 'params': {exc}") from None
    tau, h = (check_bandwidth(header[key], ParseError, f"{path}: header {key!r}")
              for key in ("tau", "h"))
    k_opt, digest = header["k_opt"], header["data_sha256"]
    if not (isinstance(k_opt, int) and 1 <= k_opt <= len(folds)):
        raise ParseError(f"{path}: header 'k_opt' must be a fold in 1..{len(folds)}, got {k_opt}")
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
        raise ParseError(f"{path}: header 'data_sha256' must be 64 lowercase hex digits, "
                         f"got {digest!r}")
    return IcrfModel(params=params, feature_names=list(header["feature_names"]), tau=tau, h=h,
                     initial_marginal=marginal, folds=folds, k_opt=k_opt, data_sha256=digest)


def _layout(header: dict, path: str) -> tuple[list, list, list]:
    """The name prefix and leaf count of each tree the header's folds list,
    and the tree count of each fold. The folds must be listed 1, 2, ...
    in order, and the manifest must name exactly their arrays, in file
    order."""
    names = ["marginal_times", "marginal_values"]
    prefixes, n_leaves, n_trees = [], [], []
    for k, fmeta in enumerate(header["folds"], 1):
        if fmeta["fold_index"] != k:
            raise ParseError(f"{path}: header 'folds': entry {k} has fold_index "
                             f"{fmeta['fold_index']!r}; folds must be listed 1, 2, ... in order")
        names.append(f"f{k}_oob")
        n_trees.append(len(fmeta["trees"]))
        for b, tmeta in enumerate(fmeta["trees"]):
            pre = f"f{k}_t{b}_"
            prefixes.append(pre)
            n_leaves.append(tmeta["n_leaves"])
            names += [pre + name for name in TREE_ARRAYS]
    if min(n_trees, default=0) < 1 or not all(type(n) is int and n >= 1 for n in n_leaves):
        raise ParseError(f"{path}: header 'folds': there must be a fold, every fold needs a "
                         "tree and every tree an integer n_leaves >= 1")
    listed = [entry[0] for entry in header["manifest"]]
    if listed != names:
        at, (got, want) = next((i, pair) for i, pair in enumerate(zip_longest(listed, names))
                               if pair[0] != pair[1])
        raise ParseError(f"{path}: header 'manifest' must list the arrays of the header's folds "
                         f"and trees in file order: entry {at} is {got!r}, not {want!r}")
    return prefixes, n_leaves, n_trees


def _read_kinds(manifest: list, fh, nbytes: int, prefixes: list, n_trees: list, path: str):
    """The marginal's times and values, the folds' OOB errors and a
    ``_Kind`` for each of TREE_ARRAYS, read from the ``nbytes`` bytes left in
    ``fh``: each array straight into its kind's concatenation."""
    entries = _entries(manifest, nbytes, path)
    marginal = [_Kind([entry], [""], name, "<f8", path)
                for entry, name in zip(entries, ("marginal_times", "marginal_values"))]
    oob_entries, tree_entries, at = [], [], 2
    for n in n_trees:
        oob_entries.append(entries[at])
        tree_entries += entries[at + 1 : at + 1 + n * len(TREE_ARRAYS)]
        at += 1 + n * len(TREE_ARRAYS)
    oob = _Kind(oob_entries, [f"f{k}_" for k in range(1, len(n_trees) + 1)], "oob", "<f8", path)
    kinds = {name: _Kind(tree_entries[j :: len(TREE_ARRAYS)], prefixes, name, dtype, path)
             for j, (name, dtype) in enumerate(TREE_ARRAYS.items())}
    # the room of every array, in file order
    trees = iter(zip(*(kind.targets() for kind in kinds.values())))
    order = marginal[0].targets() + marginal[1].targets()
    for errors, n in zip(oob.targets(), n_trees):
        order += [errors, *(room for _ in range(n) for room in next(trees))]
    for target in order:
        if fh.readinto(target) != target.size:
            raise ParseError(f"{path}: truncated while read")
    return marginal[0], marginal[1], oob, kinds


def _entries(manifest: list, nbytes: int, path: str) -> list[tuple[np.dtype, list]]:
    """(dtype, shape) of each array ``manifest`` lists, which together must
    take ``nbytes`` bytes."""
    dtypes: dict[str, np.dtype] = {}
    entries, pos = [], 0
    for name, dtype, shape in manifest:
        dt = dtypes.get(dtype)
        if dt is None:
            dt = dtypes[dtype] = np.dtype(dtype)
        pos += math.prod(shape) * dt.itemsize  # a Python product: np.prod costs more
        if min(shape, default=0) < 0 or pos > nbytes:
            raise ParseError(f"{path}: bad shape or truncated in array {name!r}")
        entries.append((dt, shape))
    if pos != nbytes:
        raise ParseError(f"{path}: {nbytes - pos} bytes after the last array {name!r}")
    return entries


class _Kind:
    """One kind of array of every tree (or fold), as a file lists them:
    each part, given as its (dtype, shape), checked to be a 1-d array of
    ``dtype``, and ``cat``, room for all parts one after another. A failed
    check raises ``ParseError`` naming the part at fault, prefix + kind."""

    def __init__(self, parts: list, prefixes: list, kind: str, dtype: str, path: str):
        self.prefixes, self.kind, self.path = prefixes, kind, path
        want = np.dtype(dtype)
        for i, (dt, shape) in enumerate(parts):
            if dt != want or len(shape) != 1:
                self.fail(i, f"must be 1-d {dtype}")
        self.sizes = [shape[0] for _, shape in parts]
        self.ends = list(accumulate(self.sizes))
        self.starts = [0] + self.ends[:-1]
        self.cat = np.empty(self.ends[-1] if parts else 0, dtype=want)

    def targets(self) -> list[np.ndarray]:
        """The bytes of each part's room in ``cat``, to read it into."""
        raw, width = self.cat.view(np.uint8), self.cat.itemsize
        return [raw[a * width : b * width] for a, b in zip(self.starts, self.ends)]

    def fail(self, i: int, what):
        """Raise for part ``i``; ``what`` is the message or gives it for ``i``."""
        what = what if isinstance(what, str) else what(i)
        raise ParseError(f"{self.path}: array {self.prefixes[i] + self.kind!r}: {what}")

    def check(self, ok: np.ndarray, what, at=None, ends=None):
        """Fail unless ``ok`` is all true; a false ``ok[j]`` blames the part
        that holds entry ``at[j]`` (``j`` itself without ``at``), found in
        ``ends`` (the parts' own ends by default)."""
        if not ok.all():
            j = int(ok.argmin())
            j = j if at is None else int(at[j])
            self.fail(int(np.searchsorted(self.ends if ends is None else ends, j, side="right")),
                      what)

    def check_sizes(self, want: list, what):
        if self.sizes != want:
            self.fail(next(i for i, (a, b) in enumerate(zip(self.sizes, want)) if a != b), what)


def _folds_from(kinds: dict, n_leaves: list, n_trees: list, errors, p: int) -> list[ForestFold]:
    """The folds whose trees' arrays ``kinds`` holds, a ``_Kind`` for each of
    TREE_ARRAYS: fold k has ``n_trees[k]`` trees, tree i the OOB error
    ``errors[i]``, ``n_leaves[i]`` leaves, among ``p`` features, and nodes
    that must route every row to one of its leaves. All trees are checked in
    one pass: each check runs once on a kind's concatenation over the trees,
    with per-tree limits from the per-tree sizes; each fold's table holds
    slices of the concatenations."""
    feature, cutoff, left, leafidx = (
        kinds[name] for name in ("feature", "cutoff", "left", "leafidx"))
    nodes = feature.sizes
    for kind in (cutoff, left, leafidx):
        kind.check_sizes(nodes, lambda i: f"must have one entry per node ({nodes[i]})")
    in_range = f"must be -1 (a leaf) or a feature in [0, {p})"
    if min(nodes) < 1:
        feature.fail(nodes.index(min(nodes)), in_range)
    feat = feature.cat
    feature.check((feat >= -1) & (feat < p), in_range)
    # each node's tree: its first and end node, its first and end leaf
    leaf_ends = list(accumulate(n_leaves))
    bounds = np.repeat(np.array([feature.starts, feature.ends, [0] + leaf_ends[:-1], leaf_ends]),
                       nodes, axis=1)
    # every node's left child and leaf in the whole model: the tree's own
    # plus the tree's first node and first leaf
    child, slot = left.cat + bounds[0], leafidx.cat + bounds[2]
    split = feat >= 0
    inner = np.flatnonzero(split)
    # children after their parent, the right one (left + 1) in the tree too:
    # routing moves down and stops
    to = child[inner]
    left.check((to > inner) & (to + 1 < bounds[1, inner]),
               "must name a later node, not the tree's last, at every split", at=inner)
    cutoff.check(np.isfinite(cutoff.cat[inner]), "must be finite at every split", at=inner)
    leaf = np.flatnonzero(~split)
    # the entries a node does not read are -1, as ``fit`` writes them, so
    # that one table has one file
    left.check(left.cat[leaf] == -1, "must be -1 at every leaf node", at=leaf)
    leafidx.check(leafidx.cat[inner] == -1, "must be -1 at every split", at=inner)
    (first, end), number = bounds[2:, leaf], slot[leaf]

    def numbered(i):
        return f"must number the leaf nodes 0..{n_leaves[i] - 1}, one each"

    leafidx.check((number >= first) & (number < end), numbered, at=leaf)
    leafidx.check(np.bincount(number, minlength=leaf_ends[-1]) == 1, numbered, ends=leaf_ends)
    # a fold's numbers and offsets are the model's less the fold's first
    s, folds = _leaf_store(kinds, n_leaves), []
    node_at, leaf_at, tree_at = [0] + feature.ends, [0] + leaf_ends, [0, *accumulate(n_trees)]
    for k, (a, b) in enumerate(zip(tree_at, tree_at[1:])):
        n0, n1, l0, l1 = node_at[a], node_at[b], leaf_at[a], leaf_at[b]
        k0, k1, i0, i1 = s.offsets[l0], s.offsets[l1], s.member_offsets[l0], s.member_offsets[l1]
        store = LeafStore(s.times[k0:k1], s.values[k0:k1], s.offsets[l0:l1 + 1] - k0,
                          s.rates[l0:l1], s.members[i0:i1], s.member_offsets[l0:l1 + 1] - i0)
        folds.append(ForestFold(
            k + 1, feat[n0:n1], cutoff.cat[n0:n1], child[n0:n1] - n0, slot[n0:n1] - l0,
            np.array(node_at[a:b + 1]) - n0, np.array(leaf_at[a:b + 1]) - l0, store,
            errors[a:b]))
    return folds


def _leaf_store(kinds: dict, n_leaves: list) -> LeafStore:
    """The LeafStore of the leaves of many trees, tree after tree, tree i
    with ``n_leaves[i]``, in the ``_Kind`` of each of ``LEAF_ARRAYS``:
    offsets that delimit the leaves, curves that StepSurvival would accept
    one by one, their values clipped to [0, 1] the same way and no tail
    rates (NaN), and members that are non-negative, below the key limit
    and distinct within their tree. Checked in one pass."""
    times, values, offsets, members, moffsets = (kinds[name] for name in LEAF_ARRAYS)
    n_trees = len(n_leaves)
    curve_starts, member_starts = (_delimits(offsets, times, n_leaves),
                                   _delimits(moffsets, members, n_leaves))
    values.check_sizes(times.sizes, "must have one value per knot")
    # StepSurvival's checks on all curves at once; the pairs of knots within
    # a curve are those that do not cross the start of the next. Comparing
    # neighbours, not taking their differences, makes no temporary as large
    # as the knots
    t, v = times.cat, values.cat
    times.check((t > 0.0) & (t < np.inf), "knot times must be finite and > 0")
    times.check(_within(t[1:] > t[:-1], curve_starts, True),
                "knot times must be strictly increasing within each curve")
    values.check((v >= -1e-12) & (v <= 1.0 + 1e-12), "values must lie in [0, 1]")
    # a rise of more than 1e-12 is a rise: only the rises need their size
    rises = np.flatnonzero(_within(v[1:] > v[:-1], curve_starts, False))
    values.check(v[rises + 1] - v[rises] <= 1e-12,
                 "values must be non-increasing within each curve", at=rises)
    m = members.cat
    # ids below the limit keep the sort keys (further down) within int64
    limit = np.iinfo(np.int64).max // n_trees
    members.check((m >= 0) & (m < limit), f"ids must lie in [0, {limit})")
    # sort keys that keep each tree's members in the tree's own block, so a
    # repeat is a key equal to its predecessor, in the same tree
    width = int(m.max()) + 1 if m.size else 1
    keys = np.sort(m + np.repeat(np.arange(0, n_trees * width, width), members.sizes))
    members.check(np.r_[True, keys[1:] > keys[:-1]], "ids must be distinct within a tree")
    np.clip(v, 0.0, 1.0, out=v)
    return LeafStore(t, v, curve_starts, np.full(len(curve_starts) - 1, np.nan), m,
                     member_starts)


def _delimits(offsets: _Kind, data: _Kind, n_leaves: list) -> np.ndarray:
    """Check that each tree's ``offsets`` rise from 0 to the size of its
    ``data`` in n_leaves + 1 entries; return the offsets of all trees'
    items, tree after tree."""
    def rise(i):
        return f"must rise from 0 to {data.sizes[i]} in {n_leaves[i] + 1} entries"

    offsets.check_sizes([n + 1 for n in n_leaves], rise)
    cat = offsets.cat
    ends = (cat[np.asarray(offsets.ends) - 1] == data.sizes) & (cat[offsets.starts] == 0)
    if not ends.all():
        offsets.fail(int(ends.argmin()), rise)
    # compared, not subtracted: a difference of two corrupt offsets may wrap
    shifted = cat + np.repeat(data.starts, offsets.sizes)
    offsets.check(shifted[1:] >= shifted[:-1], rise)
    # a tree's first entry is where the tree before ends
    shifted[offsets.starts[1:]] = -1
    return shifted[shifted >= 0]


def _within(pairs: np.ndarray, starts: np.ndarray, fill) -> np.ndarray:
    """``pairs``, a result for each two neighbours of a concatenation of
    segments that start at ``starts``, with ``fill`` for each two that
    cross from one segment to the next."""
    pairs[starts[(starts > 0) & (starts <= pairs.size)] - 1] = fill
    return pairs
