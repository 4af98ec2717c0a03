"""Neighbor-limited CRF mean-field refinement with atrous neighborhoods.

One refinement level repeatedly (r times) penalizes each point's unary
potentials using a weighted mix of a bilateral filter (position + feature
similarity) and a spatial filter (position only), routed through a hollow
compatibility matrix so the currently predicted class of a point is never
penalized. The full stack runs several levels in parallel on the same
input unaries, one per atrous stride, and sums their outputs.

All trainable quantities (filter weights and the off-diagonal compatibility
entries) participate in the autograd graph; the one-hot class selection is
a stop-gradient, and the Gaussian responses themselves are constants built
from fixed bandwidths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tape, Tensor, apply
from .neighbors import NeighborIndex, atrous_gather_all

__all__ = [
    "XcrfLevelParams", "AXcrfParams", "FilterResponse", "MeanFieldState",
    "gaussian_filters", "xcrf_forward", "axcrf_forward", "predict",
    "xcrf_graph", "axcrf_graph", "ThetaGridResult", "first_thetas",
    "grid_search_thetas", "THETA_ALPHA_CANDIDATES", "THETA_BETA_CANDIDATES",
    "THETA_GAMMA_CANDIDATES",
]

THETA_ALPHA_CANDIDATES = (0.5, 1.0, 2.0, 4.0)
THETA_BETA_CANDIDATES = (0.05, 0.1, 0.25, 0.5)
THETA_GAMMA_CANDIDATES = (0.5, 1.0, 2.0, 4.0)


@dataclass
class XcrfLevelParams:
    """Parameters of one refinement level (one atrous stride)."""

    bilateral_weight: float
    spatial_weight: float
    compat: np.ndarray            # C x C, trainable off-diagonal, zero diagonal
    theta_alpha: float            # bilateral position bandwidth, meters
    theta_beta: float             # bilateral feature bandwidth
    theta_gamma: float            # spatial bandwidth, meters
    K: int
    D: int
    r: int

    def __post_init__(self):
        self.compat = np.asarray(self.compat, dtype=np.float64)
        C = self.compat.shape[0]
        if self.compat.shape != (C, C):
            raise ValueError(f"compat must be square, got {self.compat.shape}")
        if np.any(np.diag(self.compat) != 0.0):
            raise ValueError("compat diagonal must be zero")
        for name in ("theta_alpha", "theta_beta", "theta_gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.K < 1 or self.D < 1 or self.r < 0:
            raise ValueError(f"need K >= 1, D >= 1, r >= 0; got K={self.K}, D={self.D}, r={self.r}")

    @property
    def n_classes(self) -> int:
        return self.compat.shape[0]

    @classmethod
    def initial(cls, C: int, K: int = 64, D: int = 1, r: int = 5,
                theta_alpha: float = 1.0, theta_beta: float = 0.1,
                theta_gamma: float = 1.0) -> "XcrfLevelParams":
        """Weights start at one; the compatibility matrix starts as a
        hollow all-ones matrix (ones times a zero-diagonal mask)."""
        compat = np.ones((C, C)) * (1.0 - np.eye(C))
        return cls(1.0, 1.0, compat, theta_alpha, theta_beta, theta_gamma, K, D, r)

    def copy(self) -> "XcrfLevelParams":
        return XcrfLevelParams(self.bilateral_weight, self.spatial_weight,
                               self.compat.copy(), self.theta_alpha, self.theta_beta,
                               self.theta_gamma, self.K, self.D, self.r)


@dataclass
class AXcrfParams:
    """Ordered stack of refinement levels, one per atrous stride.

    With ``shared=True`` every level reads the same trainable weights and
    compatibility matrix (level 0's); strides still differ per level.
    """

    levels: list[XcrfLevelParams]
    shared: bool = False

    def __post_init__(self):
        if not self.levels:
            raise ValueError("need at least one level")
        C = self.levels[0].n_classes
        if any(lv.n_classes != C for lv in self.levels):
            raise ValueError("all levels must share the class count")

    @property
    def D_list(self) -> list[int]:
        return [lv.D for lv in self.levels]

    @property
    def n_classes(self) -> int:
        return self.levels[0].n_classes

    @property
    def max_neighbor_rank(self) -> int:
        return max(lv.K * lv.D for lv in self.levels)

    @classmethod
    def initial(cls, C: int, D_list=(1, 2, 3, 4, 8, 16), K: int = 64, r: int = 5,
                theta_alpha: float = 1.0, theta_beta: float = 0.1,
                theta_gamma: float = 1.0, shared: bool = False) -> "AXcrfParams":
        levels = [XcrfLevelParams.initial(C, K=K, D=d, r=r, theta_alpha=theta_alpha,
                                          theta_beta=theta_beta, theta_gamma=theta_gamma)
                  for d in D_list]
        return cls(levels=levels, shared=shared)

    def copy(self) -> "AXcrfParams":
        return AXcrfParams([lv.copy() for lv in self.levels], shared=self.shared)

    def weight_groups(self) -> list[tuple[str, list[XcrfLevelParams]]]:
        """(name prefix, levels) of each set of trainable weights: one
        ``xcrf.shared`` group over every level when levels share weights,
        else one ``xcrf.level{i}`` group per level. The group's first level
        holds its values; every level of a group holds equal ones."""
        if self.shared:
            return [("xcrf.shared", list(self.levels))]
        return [(f"xcrf.level{i}", [lv]) for i, lv in enumerate(self.levels)]


@dataclass
class FilterResponse:
    B_f: np.ndarray   # N x K bilateral responses in (0, 1]
    S_f: np.ndarray   # N x K spatial responses in (0, 1]


@dataclass
class MeanFieldState:
    """Numpy snapshots of one mean-field iteration, for verification."""

    U: np.ndarray
    U_1: np.ndarray
    U_s: np.ndarray
    W_u: np.ndarray
    U_G: np.ndarray
    U_p: np.ndarray


def _neighbor_indices(neighborhoods, n_points: int) -> np.ndarray:
    """Accept an (N, K) index array or a list of AtrousNeighborhood."""
    if isinstance(neighborhoods, np.ndarray):
        idx = neighborhoods
    else:
        idx = np.stack([nb.indices for nb in neighborhoods])
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[0] != n_points:
        raise ValueError(f"neighborhoods shape {idx.shape} does not match {n_points} points")
    return idx


def gaussian_filters(positions: np.ndarray, features: np.ndarray, neighborhoods,
                     params: XcrfLevelParams) -> FilterResponse:
    """Bilateral and spatial Gaussian responses for each (point, neighbor) pair.

    bilateral = exp(-|p_i - p_j|^2 / (2 theta_alpha^2) - |f_i - f_j|^2 / (2 theta_beta^2))
    spatial   = exp(-|p_i - p_j|^2 / (2 theta_gamma^2))
    """
    positions = np.asarray(positions, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    n = positions.shape[0]
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must be N x 3, got {positions.shape}")
    if features.ndim != 2 or features.shape[0] != n:
        raise ValueError(f"features must be N x F, got {features.shape} for {n} points")
    idx = _neighbor_indices(neighborhoods, n)
    if idx.size and idx.max() >= n:
        raise ValueError("neighborhood index out of range")
    return _filters(*_pair_d2(positions, features, idx), params)


def _pair_d2(positions: np.ndarray, features: np.ndarray,
             idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared position and feature distances of each (point, neighbor) pair.

    Neighbor rows are gathered with ``take``, a contiguous copy of the same
    elements that numpy's fancy indexing copies about 10x slower for rows
    this narrow. Positions add their three columns as (dx^2 + dy^2) + dz^2,
    the order numpy's reduce uses over three columns and cheaper than a
    reduce over a 3-wide axis. Features keep ``.sum(axis=2)``: their width
    comes from the input file, and from 8 columns on numpy's reduce sums
    pairwise, so an explicit column sum would change the last bits.
    """
    sq = (positions[:, None, :] - positions.take(idx, axis=0)) ** 2
    pos_d2 = sq[:, :, 0] + sq[:, :, 1]
    pos_d2 += sq[:, :, 2]
    feat_d2 = ((features[:, None, :] - features.take(idx, axis=0)) ** 2).sum(axis=2)
    return pos_d2, feat_d2


def _filters(pos_d2: np.ndarray, feat_d2: np.ndarray,
             params: XcrfLevelParams) -> FilterResponse:
    B_f = np.exp(-pos_d2 / (2.0 * params.theta_alpha ** 2)
                 - feat_d2 / (2.0 * params.theta_beta ** 2))
    S_f = np.exp(-pos_d2 / (2.0 * params.theta_gamma ** 2))
    return FilterResponse(B_f=B_f, S_f=S_f)


def _hollow_mask(C: int) -> np.ndarray:
    return 1.0 - np.eye(C)


def xcrf_graph(tape: Tape, U: Tensor, B_f: np.ndarray, S_f: np.ndarray,
               nbr_idx: np.ndarray, bilateral_weight: Tensor, spatial_weight: Tensor,
               compat: Tensor, r: int, collect: list | None = None) -> Tensor:
    """Record r mean-field iterations on a tape and return the refined unaries.

    ``compat`` is multiplied by a zero-diagonal mask inside the graph, so
    diagonal entries receive exactly zero gradient and the hollow structure
    survives any update. The one-hot class selection blocks gradients
    toward the normalized unaries; they still flow through the
    message-passing term. Each iteration is one ``mean-field-step`` record
    with inputs ``(U, g_w, hollow, u_prev)``.
    """
    C = U.shape[1]
    bf_t = tape.leaf(B_f)
    sf_t = tape.leaf(S_f)
    g_w = bf_t * bilateral_weight + sf_t * spatial_weight
    hollow = apply(tape, "elementwise-multiply", [compat, tape.leaf(_hollow_mask(C))])
    u_1 = U
    for _ in range(r):
        # one record per iteration; U comes first so the walk adds its direct
        # gradient before the softmax path's when u_1 is U
        step = [] if collect is not None else None
        u_1 = apply(tape, "mean-field-step", [U, g_w, hollow, u_1],
                    indices=nbr_idx, snapshot=step)
        if collect is not None:
            u_s, w_u, u_g, u_p = step[0]
            collect.append(MeanFieldState(
                U=U.values.copy(), U_1=u_1.values.copy(), U_s=u_s.copy(),
                W_u=w_u.copy(), U_G=u_g.copy(), U_p=u_p.copy()))
    return u_1


def xcrf_forward(U: np.ndarray, positions: np.ndarray, features: np.ndarray,
                 params: XcrfLevelParams, index: NeighborIndex,
                 neighborhoods=None, collect_state: list | None = None) -> np.ndarray:
    """One refinement level in inference mode (no gradients retained)."""
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ValueError(f"unaries must be N x C, got {U.shape}")
    n, c = U.shape
    if c != params.n_classes:
        raise ValueError(f"unaries have {c} classes, params have {params.n_classes}")
    if positions is not None and np.asarray(positions).shape[0] != n:
        raise ValueError(f"{np.asarray(positions).shape[0]} positions for {n} unary rows")
    if params.r == 0:
        return U.copy()
    if neighborhoods is None:
        nbr_idx, _ = atrous_gather_all(index, params.K, params.D)
    else:
        nbr_idx = _neighbor_indices(neighborhoods, n)
    filters = gaussian_filters(positions, features, nbr_idx, params)
    tape = Tape(record=False)
    out = xcrf_graph(tape, tape.leaf(U), filters.B_f, filters.S_f, nbr_idx,
                     tape.leaf(params.bilateral_weight), tape.leaf(params.spatial_weight),
                     tape.leaf(params.compat), params.r, collect=collect_state)
    return out.values.copy()


def axcrf_graph(tape: Tape, U: Tensor, positions: np.ndarray, features: np.ndarray,
                params: AXcrfParams, index: NeighborIndex,
                sorted_idx: np.ndarray | None = None) -> tuple[Tensor, dict[str, Tensor]]:
    """Record the full multi-stride stack; returns (summed unaries, bindings).

    Every level consumes the same input unaries (parallel composition) and
    the per-level outputs are summed. The bindings map parameter names to
    their leaf tensors so a trainer can read gradients after backward.

    All strides come from one sorted-neighbor pass at
    ``params.max_neighbor_rank``. Pass ``sorted_idx`` from a deeper
    ``index.nearest_others_all`` to share one sort with the unary
    classifier; its leading columns equal a shallower query bit for bit.
    """
    positions = np.asarray(positions, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    if sorted_idx is None:
        sorted_idx = index.nearest_others_all(params.max_neighbor_rank)[0]
    bindings: dict[str, Tensor] = {}
    total = None
    for prefix, group in params.weight_groups():
        wb_t = tape.leaf(group[0].bilateral_weight)
        ws_t = tape.leaf(group[0].spatial_weight)
        compat_t = tape.leaf(group[0].compat)
        bindings[f"{prefix}.bilateral_weight"] = wb_t
        bindings[f"{prefix}.spatial_weight"] = ws_t
        bindings[f"{prefix}.compat"] = compat_t
        for lv in group:
            nbr_idx, _ = atrous_gather_all(index, lv.K, lv.D,
                                           sorted_idx=sorted_idx)
            filters = _filters(*_pair_d2(positions, features, nbr_idx), lv)
            out = xcrf_graph(tape, U, filters.B_f, filters.S_f, nbr_idx,
                             wb_t, ws_t, compat_t, lv.r)
            total = out if total is None else total + out
    return total, bindings


def axcrf_forward(U: np.ndarray, positions: np.ndarray, features: np.ndarray,
                  params: AXcrfParams, index: NeighborIndex,
                  sorted_idx: np.ndarray | None = None) -> np.ndarray:
    """Full stack in inference mode: sum of per-level refinements of U,
    computed on a tape that records nothing."""
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] != params.n_classes:
        raise ValueError(f"unaries shape {U.shape} does not match {params.n_classes} classes")
    tape = Tape(record=False)
    out, _ = axcrf_graph(tape, tape.leaf(U), positions, features, params, index,
                         sorted_idx=sorted_idx)
    return out.values.copy()


def first_thetas(alpha_candidates, beta_candidates,
                 gamma_candidates) -> tuple[float, float, float]:
    """(theta_alpha, theta_beta, theta_gamma): the first of each candidate
    list, the triple ``grid_search_thetas`` returns."""
    return alpha_candidates[0], beta_candidates[0], gamma_candidates[0]


@dataclass(frozen=True)
class ThetaGridResult:
    theta_alpha: float
    theta_beta: float
    theta_gamma: float
    overall_accuracy: float


def grid_search_thetas(blocks, C: int, D_list=(1, 2, 3, 4, 8, 16), K: int = 64,
                       r: int = 5, alpha_candidates=THETA_ALPHA_CANDIDATES,
                       beta_candidates=THETA_BETA_CANDIDATES,
                       gamma_candidates=THETA_GAMMA_CANDIDATES,
                       shared: bool = False) -> ThetaGridResult:
    """The bandwidths an exhaustive search would pick before any training:
    the first candidate of each list, scored by the unaries' accuracy.

    The search it replaces ran one refinement pass per (alpha, beta, gamma)
    triple with ``AXcrfParams.initial`` weights and kept the first triple
    with the strictly best overall accuracy. Those weights (positive filter
    weights, hollow all-ones compatibility) never penalize a point's
    current class and never reward another, so the stack keeps every
    argmax, every triple scores the unaries' accuracy, and the first one
    wins. The stack's settings (``C``, ``D_list``, ``K``, ``r``,
    ``shared``) therefore do not enter the result.

    Caveat: the equality holds on measured data, not as an identity. Where
    two class scores nearly tie, the row softmax or the sum over levels can
    round them to a tie or flip their order, and such a point could change
    its argmax under some triple. The test suite pins this shortcut against
    the exhaustive search on duplicate-heavy blocks.

    ``blocks`` is a sequence of (U, positions, features, labels, index)
    tuples. Bandwidths stay fixed afterwards; only the filter weights and
    the compatibility matrix train.

    No package code calls this: ``train_step2`` takes ``first_thetas``
    directly. It stays because the test suite pins the shortcut against
    the exhaustive search through it, and the benchmark's traced run times
    it as ``crf.grid_triple_ms``.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("grid search needs at least one validation block")
    correct = total = 0
    for U, _, _, labels, _ in blocks:
        correct += int((predict(U) == np.asarray(labels)).sum())
        total += len(U)
    return ThetaGridResult(*first_thetas(alpha_candidates, beta_candidates,
                                         gamma_candidates),
                           correct / total if total else 0.0)


def predict(U_final: np.ndarray) -> np.ndarray:
    """Per-point argmax after row softmax; ties go to the lowest class."""
    U_final = np.asarray(U_final, dtype=np.float64)
    if U_final.size == 0:
        return np.zeros(0, dtype=np.int64)
    if U_final.ndim != 2:
        raise ValueError(f"expected N x C scores, got {U_final.shape}")
    return U_final.argmax(axis=1).astype(np.int64)
