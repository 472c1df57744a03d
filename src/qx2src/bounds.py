"""Closed-form parameter calculators for every security bound.

Each calculator evaluates one inequality or output-length formula
exactly as stated, with the asymptotic slack made explicit: c_poly
scales the log^3(n/eps) feasibility threshold and c_o1 stands for the
additive O(1) constants.  All logarithms are base 2, and eps is used
exactly (log2(1/eps) is not rounded), so dyadic inputs give dyadic
outputs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .errors import ParameterError


@dataclass(frozen=True)
class ParamSet:
    """Problem parameters: source lengths/entropies, budgets, target error."""

    n: int
    k1: int
    k2: int
    b1: int = 0
    b2: int = 0
    m: int = 1
    eps: float = 2.0 ** -10
    c_poly: float = 1.0
    c_o1: float = 0.0

    def __post_init__(self):
        if self.n <= 0:
            raise ParameterError("n must be positive")
        if not (0 <= self.k1 <= self.n and 0 <= self.k2 <= self.n):
            raise ParameterError("min-entropies must lie in [0, n]")
        if self.b1 < 0 or self.b2 < 0:
            raise ParameterError("storage budgets must be nonnegative")
        if self.m < 1:
            raise ParameterError("m must be at least 1")
        if not 0 < self.eps <= 0.5:
            raise ParameterError("eps must lie in (0, 1/2]")

    @property
    def log_inv_eps(self) -> float:
        return -math.log2(self.eps)


@dataclass(frozen=True)
class BoundReport:
    name: str
    satisfied: bool
    slack: float
    value: float
    side: Optional[str] = None
    details: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name, "satisfied": self.satisfied,
               "slack": self.slack, "value": self.value}
        if self.side is not None:
            out["side"] = self.side
        if self.details:
            out["details"] = dict(self.details)
        return out


@dataclass(frozen=True)
class TransferredParams:
    k1: float
    k2: float
    eps: float
    vacuous: bool

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.k1, self.k2, self.eps)


# --------------------------------------------------------------------------
# one-bit inner product


def ip_bias_bound(p: ParamSet, b: int, entangled: bool, clamp: bool = True) -> float:
    """Best distinguishing bias against b qubits of storage per party.

    2^(-(k1+k2-2b-n+2)/2) with entanglement, 2^(-(k1+k2-b-n+2)/2)
    without; values above 1/2 are vacuous and reported clamped.
    """
    storage = 2 * b if entangled else b
    exponent = (p.k1 + p.k2 - storage - p.n + 2) / 2
    raw = 2.0 ** -exponent
    return min(raw, 0.5) if clamp else raw


def one_bit_condition(p: ParamSet, variant: str, entangled: bool) -> BoundReport:
    """Feasibility of the one-bit extractor at error eps.

    variant "weak-min" uses the smaller budget (plain extractor);
    "superstrong-max" uses the larger (output survives exposing either
    source plus that side's full state).  Entanglement doubles the
    storage term.
    """
    if variant == "weak-min":
        s = min(p.b1, p.b2)
    elif variant == "superstrong-max":
        s = max(p.b1, p.b2)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    factor = 2 if entangled else 1
    lhs = p.k1 + p.k2 - factor * s
    rhs = p.n - 2 + 2 * p.log_inv_eps
    try:
        threshold = ip_bias_bound(p, s, entangled, clamp=False)
    except OverflowError:
        raise ParameterError(f"eps threshold out of float range at {p}") from None
    return BoundReport(
        name=f"one-bit {variant} {'entangled' if entangled else 'product'}",
        satisfied=lhs >= rhs,
        slack=lhs - rhs,
        value=min(threshold, 0.5),
        details={"eps_threshold_raw": threshold},
    )


def transmission_guess_bound(k: int, b: int, entangled: bool) -> float:
    """Guessing probability after a b-qubit one-way transmission.

    2^(-(k-b)) without entanglement, 2^(-(k-2b)) with; clamped to 1.
    """
    exponent = k - (2 * b if entangled else b)
    return min(1.0, 2.0 ** -exponent)


# --------------------------------------------------------------------------
# multi-bit strong extractor


def strong_output_len(p: ParamSet, side: str, entangled: bool,
                      knowledge: bool = False) -> int:
    """Largest m for which the multi-bit extractor stays side-strong.

    Storage mode: k1+k2 - f*b_opp >= 2m + n - 2 + 2 log(1/eps) with
    f = 2 when entangled, b_opp the opposite side's budget.  Knowledge
    mode: k1+k2 >= 6m + n - 2 + 6 log(1/eps).
    """
    if side not in ("X", "Y"):
        raise ParameterError("side must be 'X' or 'Y'")
    L = p.log_inv_eps
    if knowledge:
        m = (p.k1 + p.k2 - p.n + 2 - 6 * L) / 6
    else:
        b_opp = p.b2 if side == "X" else p.b1
        factor = 2 if entangled else 1
        m = (p.k1 + p.k2 - factor * b_opp - p.n + 2 - 2 * L) / 2
    return max(0, math.floor(m))


COMPOSED_SETTINGS = ("storage", "entangled", "knowledge", "classical-reduction")


def _poly_threshold(p: ParamSet) -> float:
    return p.c_poly * math.log2(p.n / p.eps) ** 3


def _composed_side(p: ParamSet, setting: str, side: str):
    """(condition lhs-rhs slack, output length) for one composition side."""
    L = p.log_inv_eps
    poly = _poly_threshold(p)
    k_self, b_self, b_opp = (p.k1, p.b1, p.b2) if side == "X" else (p.k2, p.b2, p.b1)
    # per setting: the multiple of b_opp the condition charges, the entropy
    # left on this side, and the inner extractor's output length
    if setting == "storage":
        f, loss, inner = 1, k_self - b_self, 0.5 * (p.k1 + p.k2 - b_opp - p.n - 2 * L)
    elif setting == "entangled":
        f, loss = 2, k_self - p.b1 - p.b2
        inner = 0.5 * (p.k1 + p.k2 - 2 * b_opp - p.n - 2 * L)
    elif setting == "knowledge":
        f, loss, inner = 0, k_self, (p.k1 + p.k2 - p.n - 6 * L) / 6
    elif setting == "classical-reduction":
        f, loss = 10, k_self - b_self
        inner = p.k1 + p.k2 - 10 * b_opp - p.n - 4 - 3 * L
    else:
        raise ParameterError(f"unknown setting {setting!r}")
    slack = (p.k1 + p.k2 - f * b_opp) - (p.n + poly)
    if loss < 1:
        return slack, None
    return slack, inner + loss - 8 * math.log2(loss) - 8 * L - p.c_o1


def composed_output_len(p: ParamSet, setting: str) -> BoundReport:
    """Output length of the strong core composed with a seeded extractor.

    Evaluates the X-side and Y-side formulas, keeps the larger, and
    reports the chosen side's feasibility slack.  An unsatisfied side
    condition yields an infeasible report with value 0, not an error.
    """
    sides = {side: _composed_side(p, setting, side) for side in ("X", "Y")}
    details = {f"m_{s}": m for s, (_, m) in sides.items() if m is not None}
    details.update({f"slack_{s}": slack for s, (slack, _) in sides.items()})
    feasible = [s for s, (slack, m) in sides.items() if slack > 0 and m is not None]
    if feasible:
        side = max(feasible, key=lambda s: sides[s][1])
    else:
        side = max(sides, key=lambda s: sides[s][0])
    slack, m = sides[side]
    return BoundReport(name=f"composed {setting}", satisfied=bool(feasible),
                       slack=slack, value=max(0, math.floor(m)) if feasible else 0,
                       side=side, details=details)


# --------------------------------------------------------------------------
# parameter transfers


def storage_transfer(k1: float, k2: float, b2: int, eps: float) -> TransferredParams:
    """Classical strong-extractor security carried to bounded quantum storage.

    A (k1, k2, eps) X-strong extractor is also X-strong against
    (b1, b2) non-entangled storage with parameters
    (k1, k2 + b2 + log(1/eps), 4 * 2^(3 b2) * eps).
    """
    if not 0 < eps <= 1:
        raise ParameterError("eps must lie in (0, 1]")
    L = -math.log2(eps)
    eps_out = 4.0 * 2.0 ** (3 * b2) * eps
    return TransferredParams(k1=k1, k2=k2 + b2 + L, eps=eps_out,
                             vacuous=eps_out > 0.5)


def knowledge_transfer(k1: float, k2: float, eps: float,
                       variant: str) -> TransferredParams:
    """Classical extractor security carried to guessing-entropy adversaries.

    weak: (k1 + log(1/eps), k2 + log(1/eps), sqrt(3 eps / 2));
    x-strong: (k1, k2 + log(1/eps), sqrt(eps)).
    """
    if not 0 < eps <= 1:
        raise ParameterError("eps must lie in (0, 1]")
    L = -math.log2(eps)
    if variant == "weak":
        k1_out, eps_out = k1 + L, math.sqrt(1.5 * eps)
    elif variant == "x-strong":
        k1_out, eps_out = k1, math.sqrt(eps)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    return TransferredParams(k1=k1_out, k2=k2 + L, eps=eps_out, vacuous=eps_out > 0.5)
