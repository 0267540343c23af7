"""Bayesian additive regression trees: a sum-of-trees model sampled by Gibbs
backfitting with Metropolis tree moves (grow / prune / change).

Continuous responses are standardized to [-0.5, 0.5] internally and the leaf
prior is N(0, (0.5/(k*sqrt(m)))^2); the residual variance gets a scaled
inverse-chi-square prior calibrated so the q-quantile of the prior sd sits at
the sample sd. Binary responses use the probit augmentation: latent normals
with unit variance, truncated by the observed class.

Split candidates are the observed unique values of each covariate (excluding
each column's maximum, which cannot separate anything); proposals that would
create an empty leaf are rejected outright.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import chi2


@dataclass(frozen=True)
class BartParams:
    """Sampler hyperparameters.

    Attributes:
        num_trees: Trees in the ensemble.
        split_prob_base: Base of the depth-decaying split prior, in (0, 1).
        split_prob_power: Decay exponent; P(split at depth d) =
            base * (1 + d) ** -power.
        leaf_prior_k: Shrinkage constant k in the leaf-value prior sd.
        sigma_prior_df: Degrees of freedom of the inverse-chi-square
            residual-variance prior.
        sigma_prior_quantile: Prior quantile pinned at the sample sd.
        burn_in: Discarded iterations.
        draws: Retained posterior draws.
        p_grow / p_prune / p_change: Proposal mix; must sum to 1.
    """

    num_trees: int = 50
    split_prob_base: float = 0.95
    split_prob_power: float = 2.0
    leaf_prior_k: float = 2.0
    sigma_prior_df: float = 3.0
    sigma_prior_quantile: float = 0.9
    burn_in: int = 200
    draws: int = 800
    p_grow: float = 0.4
    p_prune: float = 0.4
    p_change: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.split_prob_base < 1.0:
            raise ValueError("split_prob_base must lie in (0, 1)")
        if self.num_trees < 1 or self.draws < 1 or self.burn_in < 0:
            raise ValueError("num_trees >= 1, draws >= 1, burn_in >= 0 required")
        if abs(self.p_grow + self.p_prune + self.p_change - 1.0) > 1e-12:
            raise ValueError("proposal probabilities must sum to 1")


@dataclass(frozen=True)
class TreeSnapshot:
    """Immutable flat tree: feature < 0 marks a leaf; children index into the
    same arrays; ``value`` is meaningful at leaves only."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass
class BartRegressionFit:
    """Posterior sample of a sum-of-trees regression."""

    forests: list[list[TreeSnapshot]]
    sigma_draws: np.ndarray
    in_sample: np.ndarray  # (draws, n) fitted values on the original scale
    y_min: float
    y_scale: float
    num_features: int
    params: BartParams
    seed: int
    constant_response: bool = False


@dataclass
class BartBinaryFit:
    """Posterior sample of a probit sum-of-trees classifier."""

    forests: list[list[TreeSnapshot]]
    in_sample_probs: np.ndarray  # (draws, n)
    num_features: int
    params: BartParams
    seed: int


class _Tree:
    """Mutable tree used during sampling; nodes live in parallel lists.

    ``value`` is node-indexed; an internal node keeps the value it had as a
    leaf. ``shape`` caches the compacted (order, feature, threshold, left,
    right) arrays of the last snapshot; every accepted move clears it, since
    between moves only leaf values change.
    """

    __slots__ = ("feature", "threshold", "left", "right", "depth", "value", "free", "shape")

    def __init__(self) -> None:
        self.feature = [-1]
        self.threshold = [0.0]
        self.left = [-1]
        self.right = [-1]
        self.depth = [0]
        self.value = np.zeros(1)
        self.free: list[int] = []
        self.shape: tuple[np.ndarray, ...] | None = None

    def alloc(self, depth: int) -> int:
        if self.free:
            i = self.free.pop()
            self.feature[i] = -1
            self.left[i] = -1
            self.right[i] = -1
            self.depth[i] = depth
            self.value[i] = 0.0
            return i
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.depth.append(depth)
        self.value = np.append(self.value, 0.0)
        return len(self.feature) - 1

    def split(self, leaf: int, feature: int, threshold: float) -> tuple[int, int]:
        a = self.alloc(self.depth[leaf] + 1)
        c = self.alloc(self.depth[leaf] + 1)
        self.feature[leaf] = feature
        self.threshold[leaf] = threshold
        self.left[leaf] = a
        self.right[leaf] = c
        self.shape = None
        return a, c

    def collapse(self, node: int) -> None:
        self.feature[node] = -1
        self.free.extend((self.left[node], self.right[node]))
        self.shape = None

    def resplit(self, node: int, feature: int, threshold: float) -> None:
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.shape = None

    def leaves(self) -> list[int]:
        # Live leaves in index order; each holds at least one row, so this is
        # the sorted list of node ids that occur in the tree's leaf_of.
        free = set(self.free)
        return [i for i, f in enumerate(self.feature) if f < 0 and i not in free]

    def prunable_nodes(self) -> list[int]:
        # Internal nodes whose both children are leaves, in index order.
        out = []
        for i, f in enumerate(self.feature):
            if f >= 0 and self.feature[self.left[i]] < 0 and self.feature[self.right[i]] < 0:
                out.append(i)
        return out

    def parent_of(self, child: int) -> int:
        for i, f in enumerate(self.feature):
            if f >= 0 and (self.left[i] == child or self.right[i] == child):
                return i
        return -1

    def compact(self) -> tuple[np.ndarray, ...]:
        # The reachable nodes in depth-first order, with children renumbered.
        order: list[int] = []
        remap: dict[int, int] = {}
        stack = [0]
        while stack:
            i = stack.pop()
            remap[i] = len(order)
            order.append(i)
            if self.feature[i] >= 0:
                stack.append(self.right[i])
                stack.append(self.left[i])
        arrays = (
            np.array(order, dtype=np.int64),
            np.array([self.feature[i] for i in order], dtype=np.int64),
            np.array([self.threshold[i] for i in order], dtype=float),
            np.array([remap[self.left[i]] if self.feature[i] >= 0 else -1 for i in order], dtype=np.int64),
            np.array([remap[self.right[i]] if self.feature[i] >= 0 else -1 for i in order], dtype=np.int64),
        )
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def snapshot(self) -> TreeSnapshot:
        # Snapshots share the read-only shape arrays until the next move.
        if self.shape is None:
            self.shape = self.compact()
        order, feature, threshold, left, right = self.shape
        value = self.value[order]
        value.setflags(write=False)
        return TreeSnapshot(feature=feature, threshold=threshold, left=left, right=right, value=value)


def _split_prob(params: BartParams, depth: int) -> float:
    return params.split_prob_base * (1.0 + depth) ** -params.split_prob_power


def _cell_core(total: float, count: int, sigma2: float, leaf_var: float) -> float:
    # Marginal-likelihood terms that do not cancel across a grow/prune/change
    # move: 0.5*log(s2/(s2+n*v)) + v*sum^2/(2*s2*(s2+n*v)).
    denom = sigma2 + count * leaf_var
    return 0.5 * math.log(sigma2 / denom) + leaf_var * total * total / (2.0 * sigma2 * denom)


class _Sampler:
    """One backfitting state shared by the regression and probit fits."""

    def __init__(self, x: np.ndarray, params: BartParams, leaf_sd: float, seed: int):
        self.x = x
        self.n, self.p = x.shape
        self.params = params
        self.leaf_var = leaf_sd * leaf_sd
        self.rng = np.random.default_rng(seed)
        # Global split candidates: observed uniques minus each column's max.
        self.cuts = [np.unique(x[:, j])[:-1] for j in range(self.p)]
        m = params.num_trees
        self.trees = [_Tree() for _ in range(m)]
        self.leaf_of = [np.zeros(self.n, dtype=np.int64) for _ in range(m)]
        self.fits = np.zeros((m, self.n))
        self.total = np.zeros(self.n)

    # -- tree move proposals -------------------------------------------------

    def _try_move(self, t: int, resid: np.ndarray, sigma2: float) -> None:
        u = self.rng.random()
        if u < self.params.p_grow:
            self._grow(t, resid, sigma2)
        elif u < self.params.p_grow + self.params.p_prune:
            self._prune(t, resid, sigma2)
        else:
            self._change(t, resid, sigma2)

    def _grow(self, t: int, resid: np.ndarray, sigma2: float) -> None:
        if self.params.p_prune == 0.0:
            return  # reverse move impossible, so the MH ratio is zero
        tree = self.trees[t]
        leaf_of = self.leaf_of[t]
        leaves = tree.leaves()
        b = len(leaves)
        leaf = leaves[self.rng.integers(b)]
        j = int(self.rng.integers(self.p))
        cuts = self.cuts[j]
        if cuts.size == 0:
            return
        cut = float(cuts[self.rng.integers(cuts.size)])
        mask = leaf_of == leaf
        xs = self.x[mask, j]
        go_left = xs <= cut
        nl = int(np.count_nonzero(go_left))
        nr = int(mask.sum()) - nl
        if nl == 0 or nr == 0:
            return  # empty-leaf proposal rejected outright
        rs = resid[mask]
        sl = float(rs[go_left].sum())
        s = float(rs.sum())
        sr = s - sl
        loglik = (
            _cell_core(sl, nl, sigma2, self.leaf_var)
            + _cell_core(sr, nr, sigma2, self.leaf_var)
            - _cell_core(s, nl + nr, sigma2, self.leaf_var)
        )
        d = tree.depth[leaf]
        ps_d = _split_prob(self.params, d)
        ps_child = _split_prob(self.params, d + 1)
        logprior = math.log(ps_d) + 2.0 * math.log(1.0 - ps_child) - math.log(1.0 - ps_d)
        # Prunable count after the grow: the new node becomes prunable; its
        # parent (if it was prunable) no longer is.
        w2_new = len(tree.prunable_nodes()) + 1
        parent = tree.parent_of(leaf)
        if parent >= 0:
            sibling = tree.right[parent] if tree.left[parent] == leaf else tree.left[parent]
            if tree.feature[sibling] < 0:
                w2_new -= 1
        logprop = math.log(self.params.p_prune * b) - math.log(self.params.p_grow * w2_new)
        if math.log(self.rng.random()) < loglik + logprior + logprop:
            a, c = tree.split(leaf, j, cut)
            rows = np.flatnonzero(mask)
            leaf_of[rows[go_left]] = a
            leaf_of[rows[~go_left]] = c

    def _prune(self, t: int, resid: np.ndarray, sigma2: float) -> None:
        if self.params.p_grow == 0.0:
            return  # reverse move impossible, so the MH ratio is zero
        tree = self.trees[t]
        leaf_of = self.leaf_of[t]
        prunable = tree.prunable_nodes()
        w2 = len(prunable)
        if w2 == 0:
            return
        v = prunable[int(self.rng.integers(w2))]
        a, c = tree.left[v], tree.right[v]
        mask_a = leaf_of == a
        mask_c = leaf_of == c
        na = int(mask_a.sum())
        nc = int(mask_c.sum())
        sa = float(resid[mask_a].sum())
        sc = float(resid[mask_c].sum())
        loglik = (
            _cell_core(sa + sc, na + nc, sigma2, self.leaf_var)
            - _cell_core(sa, na, sigma2, self.leaf_var)
            - _cell_core(sc, nc, sigma2, self.leaf_var)
        )
        d = tree.depth[v]
        ps_d = _split_prob(self.params, d)
        ps_child = _split_prob(self.params, d + 1)
        logprior = math.log(1.0 - ps_d) - math.log(ps_d) - 2.0 * math.log(1.0 - ps_child)
        b_after = len(tree.leaves()) - 1
        logprop = math.log(self.params.p_grow * w2) - math.log(self.params.p_prune * b_after)
        if math.log(self.rng.random()) < loglik + logprior + logprop:
            tree.collapse(v)
            leaf_of[mask_a | mask_c] = v

    def _change(self, t: int, resid: np.ndarray, sigma2: float) -> None:
        tree = self.trees[t]
        leaf_of = self.leaf_of[t]
        prunable = tree.prunable_nodes()
        if not prunable:
            return
        v = prunable[int(self.rng.integers(len(prunable)))]
        j = int(self.rng.integers(self.p))
        cuts = self.cuts[j]
        if cuts.size == 0:
            return
        cut = float(cuts[self.rng.integers(cuts.size)])
        a, c = tree.left[v], tree.right[v]
        region = (leaf_of == a) | (leaf_of == c)
        rows = np.flatnonzero(region)
        xs = self.x[rows, j]
        go_left = xs <= cut
        nl = int(np.count_nonzero(go_left))
        nr = rows.size - nl
        if nl == 0 or nr == 0:
            return
        rs = resid[rows]
        s_new_l = float(rs[go_left].sum())
        s_new_r = float(rs.sum()) - s_new_l
        old_left = leaf_of[rows] == a
        s_old_l = float(rs[old_left].sum())
        s_old_r = float(rs.sum()) - s_old_l
        n_old_l = int(np.count_nonzero(old_left))
        n_old_r = rows.size - n_old_l
        loglik = (
            _cell_core(s_new_l, nl, sigma2, self.leaf_var)
            + _cell_core(s_new_r, nr, sigma2, self.leaf_var)
            - _cell_core(s_old_l, n_old_l, sigma2, self.leaf_var)
            - _cell_core(s_old_r, n_old_r, sigma2, self.leaf_var)
        )
        if math.log(self.rng.random()) < loglik:
            tree.resplit(v, j, cut)
            leaf_of[rows[go_left]] = a
            leaf_of[rows[~go_left]] = c

    # -- Gibbs steps -----------------------------------------------------------

    def backfit_iteration(self, y: np.ndarray, sigma2: float, validate: bool = False) -> None:
        for t in range(self.params.num_trees):
            tree = self.trees[t]
            leaf_of = self.leaf_of[t]
            resid = y - self.total + self.fits[t]
            self._try_move(t, resid, sigma2)
            # Leaf statistics by node id. bincount sums each bin in row order,
            # and every live leaf holds a row, so the nonzero counts are the
            # live leaves in index order.
            size = len(tree.feature)
            counts = np.bincount(leaf_of, minlength=size)
            sums = np.bincount(leaf_of, weights=resid, minlength=size)
            live = np.flatnonzero(counts)
            post_var = 1.0 / (counts[live] / sigma2 + 1.0 / self.leaf_var)
            post_mean = (sums[live] / sigma2) * post_var
            tree.value[live] = post_mean + np.sqrt(post_var) * self.rng.standard_normal(live.size)
            new_fit = tree.value[leaf_of]
            self.total += new_fit - self.fits[t]
            self.fits[t] = new_fit
            if validate:
                self._check_tree(t)
        if validate:
            recomputed = self.fits.sum(axis=0)
            if np.max(np.abs(recomputed - self.total)) > 1e-10:
                raise AssertionError("backfitting identity violated")

    def _check_tree(self, t: int) -> None:
        # Test-only: the node bookkeeping must agree with a rescan of the data.
        tree = self.trees[t]
        if tree.leaves() != np.unique(self.leaf_of[t]).tolist():
            raise AssertionError("leaf list differs from the rows' leaves")
        if tree.shape is not None and not all(
            np.array_equal(a, b) for a, b in zip(tree.shape, tree.compact())
        ):
            raise AssertionError("cached tree shape is stale")

    def snapshot_forest(self) -> list[TreeSnapshot]:
        return [tree.snapshot() for tree in self.trees]


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    y_min = float(y.min())
    y_scale = float(y.max()) - y_min
    if y_scale == 0.0:
        return np.zeros_like(y), y_min, 0.0
    return (y - y_min) / y_scale - 0.5, y_min, y_scale


def fit_bart_regression(
    x: np.ndarray, y: np.ndarray, params: BartParams | None = None, seed: int = 0, validate: bool = False
) -> BartRegressionFit:
    """Fit the sum-of-trees regression by MCMC and keep the post-burn draws."""
    params = params or BartParams()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("x must be (n, p) and y length n")
    n = x.shape[0]
    y_std, y_min, y_scale = _standardize(y)
    if y_scale == 0.0:
        # Degenerate response: intercept-only forests reproducing the constant.
        leaf = -0.5 / params.num_trees
        stump = TreeSnapshot(
            feature=np.array([-1]),
            threshold=np.array([0.0]),
            left=np.array([-1]),
            right=np.array([-1]),
            value=np.array([leaf]),
        )
        forests = [[stump] * params.num_trees for _ in range(params.draws)]
        in_sample = np.full((params.draws, n), y_min)
        return BartRegressionFit(
            forests=forests,
            sigma_draws=np.zeros(params.draws),
            in_sample=in_sample,
            y_min=y_min,
            y_scale=1.0,
            num_features=x.shape[1],
            params=params,
            seed=seed,
            constant_response=True,
        )

    leaf_sd = 0.5 / (params.leaf_prior_k * math.sqrt(params.num_trees))
    sampler = _Sampler(x, params, leaf_sd, seed)
    sd_hat = float(np.std(y_std, ddof=1)) if n > 1 else 0.5
    nu = params.sigma_prior_df
    lam = sd_hat * sd_hat * float(chi2.ppf(1.0 - params.sigma_prior_quantile, nu)) / nu
    sigma2 = sd_hat * sd_hat

    forests: list[list[TreeSnapshot]] = []
    sigma_draws = np.empty(params.draws)
    in_sample = np.empty((params.draws, n))
    for it in range(params.burn_in + params.draws):
        sampler.backfit_iteration(y_std, sigma2, validate=validate)
        ssr = float(np.sum((y_std - sampler.total) ** 2))
        sigma2 = (nu * lam + ssr) / float(sampler.rng.chisquare(nu + n))
        if it >= params.burn_in:
            k = it - params.burn_in
            forests.append(sampler.snapshot_forest())
            sigma_draws[k] = math.sqrt(sigma2) * y_scale
            in_sample[k] = (sampler.total + 0.5) * y_scale + y_min
    return BartRegressionFit(
        forests=forests,
        sigma_draws=sigma_draws,
        in_sample=in_sample,
        y_min=y_min,
        y_scale=y_scale,
        num_features=x.shape[1],
        params=params,
        seed=seed,
    )


#: Leaf-prior numerator for the probit model (latent scale spans about +-3).
_BINARY_LEAF_SPAN = 3.0


def fit_bart_binary(
    x: np.ndarray, z: np.ndarray, params: BartParams | None = None, seed: int = 0, validate: bool = False
) -> BartBinaryFit:
    """Probit sum-of-trees fit via truncated-normal latent augmentation."""
    params = params or BartParams()
    x = np.asarray(x, dtype=float)
    z = np.asarray(z)
    if x.ndim != 2 or z.shape != (x.shape[0],):
        raise ValueError("x must be (n, p) and z length n")
    if not np.isin(z, (0, 1)).all():
        raise ValueError("z must be binary 0/1")
    n = x.shape[0]
    leaf_sd = _BINARY_LEAF_SPAN / (params.leaf_prior_k * math.sqrt(params.num_trees))
    sampler = _Sampler(x, params, leaf_sd, seed)
    positive = z == 1

    forests: list[list[TreeSnapshot]] = []
    probs = np.empty((params.draws, n))
    for it in range(params.burn_in + params.draws):
        # Latent responses: N(g, 1) truncated to the observed class's side of 0.
        g = sampler.total
        u = sampler.rng.random(n)
        lo = ndtr(-g)  # P(latent <= 0)
        q = np.where(positive, lo + u * (1.0 - lo), u * lo)
        latent = g + ndtri(np.clip(q, 1e-15, 1.0 - 1e-15))
        sampler.backfit_iteration(latent, 1.0, validate=validate)
        if it >= params.burn_in:
            forests.append(sampler.snapshot_forest())
            probs[it - params.burn_in] = ndtr(sampler.total)
    return BartBinaryFit(
        forests=forests, in_sample_probs=probs, num_features=x.shape[1], params=params, seed=seed
    )


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _route(tree: TreeSnapshot, x: np.ndarray) -> np.ndarray:
    idx = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[idx]
        active = feat >= 0
        if not active.any():
            return tree.value[idx]
        rows = np.flatnonzero(active)
        node = idx[rows]
        go_left = x[rows, tree.feature[node]] <= tree.threshold[node]
        idx[rows] = np.where(go_left, tree.left[node], tree.right[node])


def _forest_totals(forests: list[list[TreeSnapshot]], x: np.ndarray) -> np.ndarray:
    out = np.zeros((len(forests), x.shape[0]))
    for d, forest in enumerate(forests):
        total = np.zeros(x.shape[0])
        for tree in forest:
            total += _route(tree, x)
        out[d] = total
    return out


def bart_predict(fit: BartRegressionFit, x: np.ndarray, per_draw: bool = False) -> np.ndarray:
    """Posterior-mean prediction (or the per-draw matrix) on the y scale."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != fit.num_features:
        raise ValueError(f"x must have {fit.num_features} columns")
    draws = (_forest_totals(fit.forests, x) + 0.5) * fit.y_scale + fit.y_min
    return draws if per_draw else draws.mean(axis=0)


def bart_predict_proba(fit: BartBinaryFit, x: np.ndarray) -> np.ndarray:
    """Per-draw event probabilities, shape (draws, rows)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != fit.num_features:
        raise ValueError(f"x must have {fit.num_features} columns")
    return ndtr(_forest_totals(fit.forests, x))


# ---------------------------------------------------------------------------
# Serialization (exact round trip)
# ---------------------------------------------------------------------------


def _tree_to_obj(tree: TreeSnapshot) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from_obj(obj: dict) -> TreeSnapshot:
    return TreeSnapshot(
        feature=np.asarray(obj["feature"], dtype=np.int64),
        threshold=np.asarray(obj["threshold"], dtype=float),
        left=np.asarray(obj["left"], dtype=np.int64),
        right=np.asarray(obj["right"], dtype=np.int64),
        value=np.asarray(obj["value"], dtype=float),
    )


def forest_to_json(fit: BartRegressionFit | BartBinaryFit) -> str:
    """Serialize a fit to JSON text; floats round-trip exactly via repr."""
    obj: dict = {
        "kind": "regression" if isinstance(fit, BartRegressionFit) else "binary",
        "num_features": fit.num_features,
        "seed": fit.seed,
        "params": {k: getattr(fit.params, k) for k in BartParams.__dataclass_fields__},
        "forests": [[_tree_to_obj(t) for t in forest] for forest in fit.forests],
    }
    if isinstance(fit, BartRegressionFit):
        obj["y_min"] = fit.y_min
        obj["y_scale"] = fit.y_scale
        obj["sigma_draws"] = fit.sigma_draws.tolist()
        obj["in_sample"] = fit.in_sample.tolist()
        obj["constant_response"] = fit.constant_response
    else:
        obj["in_sample_probs"] = fit.in_sample_probs.tolist()
    return json.dumps(obj)


def forest_from_json(text: str) -> BartRegressionFit | BartBinaryFit:
    obj = json.loads(text)
    forests = [[_tree_from_obj(t) for t in forest] for forest in obj["forests"]]
    params = BartParams(**obj["params"])
    if obj["kind"] == "regression":
        return BartRegressionFit(
            forests=forests,
            sigma_draws=np.asarray(obj["sigma_draws"], dtype=float),
            in_sample=np.asarray(obj["in_sample"], dtype=float),
            y_min=obj["y_min"],
            y_scale=obj["y_scale"],
            num_features=obj["num_features"],
            params=params,
            seed=obj["seed"],
            constant_response=obj["constant_response"],
        )
    return BartBinaryFit(
        forests=forests,
        in_sample_probs=np.asarray(obj["in_sample_probs"], dtype=float),
        num_features=obj["num_features"],
        params=params,
        seed=obj["seed"],
    )
