"""Bayesian additive regression trees: a sum-of-trees model sampled by Gibbs
backfitting with Metropolis tree moves (grow / prune / change).

Continuous responses are standardized to [-0.5, 0.5] internally and the leaf
prior is N(0, (0.5/(k*sqrt(m)))^2); the residual variance gets a scaled
inverse-chi-square prior calibrated so the q-quantile of the prior sd sits at
the sample sd. The chi-square quantile this needs is 2 * gammaincinv(nu/2,
1 - q), the inverse regularized incomplete gamma function of
``scipy.special``; that is the formula ``scipy.stats.chi2.ppf`` evaluates,
so the prior is the same to the bit without loading ``scipy.stats``. Binary
responses use the probit augmentation: latent normals with unit variance,
truncated by the observed class, drawn through ``ndtr`` and ``ndtri``. All
three functions come from ``_scipy``, which loads them from the extension
module ``scipy.special._ufuncs`` without the ``scipy.special`` package.

Split candidates are the observed unique values of each covariate (excluding
each column's maximum, which cannot separate anything); proposals that would
create an empty leaf are rejected outright.

Each fit streams its retained draws into one length-n sum and returns the
posterior mean of its in-sample values, the only thing its callers read; no
draw and no tree outlives the fit.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._scipy import gammaincinv, ndtr, ndtri


@dataclass(frozen=True)
class BartParams:
    """Sampler hyperparameters.

    Attributes:
        num_trees: Trees in the ensemble.
        split_prob_base: Base of the depth-decaying split prior, in (0, 1).
        split_prob_power: Decay exponent, >= 0; P(split at depth d) =
            base * (1 + d) ** -power.
        leaf_prior_k: Shrinkage constant k > 0 in the leaf-value prior sd.
        sigma_prior_df: Degrees of freedom (> 0) of the inverse-chi-square
            residual-variance prior.
        sigma_prior_quantile: Prior quantile pinned at the sample sd, in (0, 1).
        burn_in: Discarded iterations.
        draws: Retained posterior draws.
        p_grow / p_prune / p_change: Proposal mix; non-negative, summing to 1.
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
        # Comparisons are written so that NaN fails them.
        counts = (self.num_trees, self.draws, self.burn_in)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in counts):
            raise ValueError("num_trees, draws and burn_in must be integers")
        if self.num_trees < 1 or self.draws < 1 or self.burn_in < 0:
            raise ValueError("num_trees >= 1, draws >= 1, burn_in >= 0 required")
        if not 0.0 < self.split_prob_base < 1.0:
            raise ValueError("split_prob_base must lie in (0, 1)")
        if not self.split_prob_power >= 0.0:
            raise ValueError("split_prob_power must be >= 0")
        if not (self.leaf_prior_k > 0.0 and self.sigma_prior_df > 0.0):
            raise ValueError("leaf_prior_k and sigma_prior_df must be > 0")
        if not 0.0 < self.sigma_prior_quantile < 1.0:
            raise ValueError("sigma_prior_quantile must lie in (0, 1)")
        mix = (self.p_grow, self.p_prune, self.p_change)
        if not all(p >= 0.0 for p in mix):
            raise ValueError("proposal probabilities must be >= 0")
        if abs(sum(mix) - 1.0) > 1e-12:
            raise ValueError("proposal probabilities must sum to 1")


class _Tree:
    """Mutable tree used during sampling; nodes live in parallel lists.

    ``value`` is node-indexed; an internal node keeps the value it had as a
    leaf. ``rows`` maps each live leaf to the ascending array of the rows it
    holds, and ``leaf_of`` maps each row to its leaf.
    """

    __slots__ = ("feature", "threshold", "left", "right", "depth", "value", "free", "rows", "leaf_of")

    def __init__(self, n: int) -> None:
        self.feature = [-1]
        self.threshold = [0.0]
        self.left = [-1]
        self.right = [-1]
        self.depth = [0]
        self.value = np.zeros(1)
        self.free: list[int] = []
        self.rows = {0: np.arange(n)}
        self.leaf_of = np.zeros(n, dtype=np.int64)

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

    def _assign(self, leaf: int, rows: np.ndarray) -> None:
        self.rows[leaf] = rows
        self.leaf_of[rows] = leaf

    def split(self, leaf: int, feature: int, threshold: float, go_left: np.ndarray) -> None:
        a = self.alloc(self.depth[leaf] + 1)
        c = self.alloc(self.depth[leaf] + 1)
        self.feature[leaf] = feature
        self.threshold[leaf] = threshold
        self.left[leaf] = a
        self.right[leaf] = c
        rows = self.rows.pop(leaf)
        self._assign(a, rows[go_left])
        self._assign(c, rows[~go_left])

    def collapse(self, node: int) -> None:
        rows = _union(*self.children_rows(node))
        self.feature[node] = -1
        self.free.extend((self.left[node], self.right[node]))
        del self.rows[self.left[node]], self.rows[self.right[node]]
        self._assign(node, rows)

    def resplit(
        self, node: int, feature: int, threshold: float, rows: np.ndarray, go_left: np.ndarray
    ) -> None:
        self.feature[node] = feature
        self.threshold[node] = threshold
        self._assign(self.left[node], rows[go_left])
        self._assign(self.right[node], rows[~go_left])

    def leaves(self) -> list[int]:
        # Live leaves in index order.
        return sorted(self.rows)

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

    def children_rows(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        # Rows of a prunable node's two leaves.
        return self.rows[self.left[node]], self.rows[self.right[node]]


def _union(ra: np.ndarray, rc: np.ndarray) -> np.ndarray:
    # Ascending union of two disjoint row lists.
    rows = np.concatenate((ra, rc))
    rows.sort()
    return rows


def _split_prob(params: BartParams, depth: int) -> float:
    return params.split_prob_base * (1.0 + depth) ** -params.split_prob_power


def _cell_core(total: float, count: int, sigma2: float, leaf_var: float) -> float:
    # Marginal-likelihood terms that do not cancel across a grow/prune/change
    # move: 0.5*log(s2/(s2+n*v)) + v*sum^2/(2*s2*(s2+n*v)).
    denom = sigma2 + count * leaf_var
    return 0.5 * math.log(sigma2 / denom) + leaf_var * total * total / (2.0 * sigma2 * denom)


class _Sampler:
    """One backfitting state shared by the regression and probit fits.

    Every residual sum is taken over a leaf's rows in ascending row order, so
    a fit's draws are a function of the data and the seed alone.
    """

    def __init__(self, x: np.ndarray, params: BartParams, leaf_sd: float, seed: int):
        self.n, self.p = x.shape
        # One contiguous copy per feature, for the split-column gathers.
        self.columns = np.ascontiguousarray(x.T)
        self.params = params
        self.leaf_var = leaf_sd * leaf_sd
        self.rng = np.random.default_rng(seed)
        # Global split candidates: observed uniques minus each column's max,
        # read off the sorted columns (np.unique would import numpy.ma).
        self.cuts = [s[:-1][s[:-1] != s[1:]] for s in np.sort(self.columns, axis=1)]
        m = params.num_trees
        self.trees = [_Tree(self.n) for _ in range(m)]
        self.fits = np.zeros((m, self.n))
        self.total = np.zeros(self.n)

    # -- tree move proposals -------------------------------------------------

    def _try_move(self, tree: _Tree, resid: np.ndarray, sigma2: float) -> None:
        u = self.rng.random()
        if u < self.params.p_grow:
            self._grow(tree, resid, sigma2)
        elif u < self.params.p_grow + self.params.p_prune:
            self._prune(tree, resid, sigma2)
        else:
            self._change(tree, resid, sigma2)

    def _propose_cut(self) -> tuple[int, float] | None:
        j = int(self.rng.integers(self.p))
        cuts = self.cuts[j]
        if cuts.size == 0:
            return None
        return j, float(cuts[self.rng.integers(cuts.size)])

    def _grow(self, tree: _Tree, resid: np.ndarray, sigma2: float) -> None:
        if self.params.p_prune == 0.0:
            return  # reverse move impossible, so the MH ratio is zero
        leaves = tree.leaves()
        b = len(leaves)
        leaf = leaves[self.rng.integers(b)]
        proposal = self._propose_cut()
        if proposal is None:
            return
        j, cut = proposal
        rows = tree.rows[leaf]
        go_left = self.columns[j][rows] <= cut
        nl = int(np.count_nonzero(go_left))
        nr = rows.size - nl
        if nl == 0 or nr == 0:
            return  # empty-leaf proposal rejected outright
        rs = resid[rows]
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
            tree.split(leaf, j, cut, go_left)

    def _prune(self, tree: _Tree, resid: np.ndarray, sigma2: float) -> None:
        if self.params.p_grow == 0.0:
            return  # reverse move impossible, so the MH ratio is zero
        prunable = tree.prunable_nodes()
        w2 = len(prunable)
        if w2 == 0:
            return
        v = prunable[int(self.rng.integers(w2))]
        ra, rc = tree.children_rows(v)
        sa = float(resid[ra].sum())
        sc = float(resid[rc].sum())
        loglik = (
            _cell_core(sa + sc, ra.size + rc.size, sigma2, self.leaf_var)
            - _cell_core(sa, ra.size, sigma2, self.leaf_var)
            - _cell_core(sc, rc.size, sigma2, self.leaf_var)
        )
        d = tree.depth[v]
        ps_d = _split_prob(self.params, d)
        ps_child = _split_prob(self.params, d + 1)
        logprior = math.log(1.0 - ps_d) - math.log(ps_d) - 2.0 * math.log(1.0 - ps_child)
        b_after = len(tree.rows) - 1
        logprop = math.log(self.params.p_grow * w2) - math.log(self.params.p_prune * b_after)
        if math.log(self.rng.random()) < loglik + logprior + logprop:
            tree.collapse(v)

    def _change(self, tree: _Tree, resid: np.ndarray, sigma2: float) -> None:
        prunable = tree.prunable_nodes()
        if not prunable:
            return
        v = prunable[int(self.rng.integers(len(prunable)))]
        proposal = self._propose_cut()
        if proposal is None:
            return
        j, cut = proposal
        ra, rc = tree.children_rows(v)
        rows = _union(ra, rc)
        go_left = self.columns[j][rows] <= cut
        nl = int(np.count_nonzero(go_left))
        nr = rows.size - nl
        if nl == 0 or nr == 0:
            return
        rs = resid[rows]
        s = float(rs.sum())
        s_new_l = float(rs[go_left].sum())
        s_old_l = float(resid[ra].sum())
        loglik = (
            _cell_core(s_new_l, nl, sigma2, self.leaf_var)
            + _cell_core(s - s_new_l, nr, sigma2, self.leaf_var)
            - _cell_core(s_old_l, ra.size, sigma2, self.leaf_var)
            - _cell_core(s - s_old_l, rc.size, sigma2, self.leaf_var)
        )
        if math.log(self.rng.random()) < loglik:
            tree.resplit(v, j, cut, rows, go_left)

    # -- Gibbs steps -----------------------------------------------------------

    def backfit_iteration(self, y: np.ndarray, sigma2: float, validate: bool = False) -> None:
        inv_leaf_var = 1.0 / self.leaf_var
        for t, tree in enumerate(self.trees):
            resid = y - self.total + self.fits[t]
            self._try_move(tree, resid, sigma2)
            # Leaf posteriors, in leaf index order. bincount adds each leaf's
            # residuals in row order.
            sums = np.bincount(tree.leaf_of, weights=resid).tolist()
            live = tree.leaves()
            noise = self.rng.standard_normal(len(live)).tolist()
            for leaf, e in zip(live, noise):
                post_var = 1.0 / (tree.rows[leaf].size / sigma2 + inv_leaf_var)
                post_mean = (sums[leaf] / sigma2) * post_var
                tree.value[leaf] = post_mean + math.sqrt(post_var) * e
            new_fit = tree.value[tree.leaf_of]
            self.total += new_fit - self.fits[t]
            self.fits[t] = new_fit
            if validate:
                self._check_tree(tree)
        if validate:
            recomputed = self.fits.sum(axis=0)
            if np.max(np.abs(recomputed - self.total)) > 1e-10:
                raise AssertionError("backfitting identity violated")

    def _check_tree(self, tree: _Tree) -> None:
        # Test-only: the node bookkeeping must agree with a walk of the tree
        # and a rescan of the data.
        reachable, stack = [], [0]
        while stack:
            i = stack.pop()
            if tree.feature[i] < 0:
                reachable.append(i)
            else:
                stack.extend((tree.left[i], tree.right[i]))
        if tree.leaves() != sorted(reachable):
            raise AssertionError("row-list keys differ from the tree's leaves")
        if tree.leaves() != np.flatnonzero(np.bincount(tree.leaf_of)).tolist():
            raise AssertionError("leaf list differs from the rows' leaves")
        for leaf, rows in tree.rows.items():
            if np.any(np.diff(rows) <= 0):
                raise AssertionError(f"rows of leaf {leaf} are not strictly ascending")
            if np.any(tree.leaf_of[rows] != leaf):
                raise AssertionError(f"rows of leaf {leaf} disagree with leaf_of")
        covered = np.sort(np.concatenate(list(tree.rows.values())))
        if not np.array_equal(covered, np.arange(self.n)):
            raise AssertionError("row lists do not partition the rows")


def _standardize(y: np.ndarray) -> tuple[np.ndarray, float, float]:
    y_min = float(y.min())
    y_scale = float(y.max()) - y_min
    if y_scale == 0.0:
        return np.zeros_like(y), y_min, 0.0
    return (y - y_min) / y_scale - 0.5, y_min, y_scale


def _regression_draws(
    x: np.ndarray, y: np.ndarray, params: BartParams, seed: int, validate: bool
) -> Iterator[tuple[np.ndarray, float]]:
    """Yield each retained draw: fitted values on the original scale, sigma."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("x must be (n, p) and y length n")
    n = x.shape[0]
    y_std, y_min, y_scale = _standardize(y)
    if y_scale == 0.0:
        # Degenerate response: every draw reproduces the constant.
        for _ in range(params.draws):
            yield np.full(n, y_min), 0.0
        return

    leaf_sd = 0.5 / (params.leaf_prior_k * math.sqrt(params.num_trees))
    sampler = _Sampler(x, params, leaf_sd, seed)
    # y takes at least two values here, so n >= 2.
    sd_hat = float(np.std(y_std, ddof=1))
    nu = params.sigma_prior_df
    chi2_quantile = 2.0 * float(gammaincinv(nu / 2.0, 1.0 - params.sigma_prior_quantile))
    lam = sd_hat * sd_hat * chi2_quantile / nu
    sigma2 = sd_hat * sd_hat

    for it in range(params.burn_in + params.draws):
        sampler.backfit_iteration(y_std, sigma2, validate=validate)
        ssr = float(np.sum((y_std - sampler.total) ** 2))
        sigma2 = (nu * lam + ssr) / float(sampler.rng.chisquare(nu + n))
        if it >= params.burn_in:
            yield (sampler.total + 0.5) * y_scale + y_min, math.sqrt(sigma2) * y_scale


def fit_bart_regression(
    x: np.ndarray, y: np.ndarray, params: BartParams | None = None, seed: int = 0, validate: bool = False
) -> np.ndarray:
    """Posterior mean of the sum-of-trees regression's in-sample fit."""
    params = params or BartParams()
    total = np.zeros(len(x))
    for fitted, _ in _regression_draws(x, y, params, seed, validate):
        total += fitted
    return total / params.draws


#: Leaf-prior numerator for the probit model (latent scale spans about +-3).
_BINARY_LEAF_SPAN = 3.0


def _binary_draws(
    x: np.ndarray, z: np.ndarray, params: BartParams, seed: int, validate: bool
) -> Iterator[np.ndarray]:
    """Yield each retained draw's in-sample probabilities."""
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

    for it in range(params.burn_in + params.draws):
        # Latent responses: N(g, 1) truncated to the observed class's side of 0.
        g = sampler.total
        u = sampler.rng.random(n)
        lo = ndtr(-g)  # P(latent <= 0)
        q = np.where(positive, lo + u * (1.0 - lo), u * lo)
        latent = g + ndtri(np.clip(q, 1e-15, 1.0 - 1e-15))
        sampler.backfit_iteration(latent, 1.0, validate=validate)
        if it >= params.burn_in:
            yield ndtr(sampler.total)


def fit_bart_binary(
    x: np.ndarray, z: np.ndarray, params: BartParams | None = None, seed: int = 0, validate: bool = False
) -> np.ndarray:
    """Posterior mean in-sample probabilities of the probit sum-of-trees fit,
    by truncated-normal latent augmentation."""
    params = params or BartParams()
    total = np.zeros(len(x))
    for probs in _binary_draws(x, z, params, seed, validate):
        total += probs
    return total / params.draws
