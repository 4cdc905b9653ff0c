"""Finite environments: type spaces, alternatives, reactions and utilities.

An environment bundles per-agent finite type spaces, a finite set of social
alternatives, per-agent finite reaction sets, and a utility function mapping
(agent, type vector, alternative, reaction) into [0, 1].  Derived quantities
(tightest sensitivity, gap, separating sets, optimal reactions) are computed
by exact enumeration subject to an explicit evaluation budget.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterator, NamedTuple

from .errors import EnumerationBudgetExceeded, NotNonTrivial

ABS_TOL = 1e-12
DEFAULT_BUDGET = 10**7

INTERDEPENDENT = "interdependent"
PRIVATE_REACTIONS = "private-reactions"
PRIVATE_VALUES = "private-values"

_VALUES_KINDS = (INTERDEPENDENT, PRIVATE_REACTIONS, PRIVATE_VALUES)

_EXACT_TYPES = (int, Fraction)


def _is_exact(x) -> bool:
    return isinstance(x, _EXACT_TYPES)


def _gt(a, b) -> bool:
    """Strictly-greater with tolerance for floats, exact for rationals."""
    if _is_exact(a) and _is_exact(b):
        return a > b
    return a > b + ABS_TOL


def _close(a, b) -> bool:
    if _is_exact(a) and _is_exact(b):
        return a == b
    return abs(a - b) <= ABS_TOL


class Environment:
    """A finite environment (type spaces, alternatives, reactions, utility).

    ``utility`` is a total function (agent index, full type vector,
    alternative, reaction) -> value in [0, 1].  ``values_kind`` is declared by
    the constructor; use :func:`check_environment` to verify the declaration
    by enumeration.  A type vector is addressed by its index alone (``index``,
    ``vector``): the checks walk indices (``walk``, ``profiles``), and no
    list of the vectors is held.
    """

    group_size: int | None = None  # of interchangeable agents, by HistogramInstance.env

    def __init__(
        self,
        type_spaces,
        alternatives,
        reaction_spaces,
        utility: Callable[[int, tuple, Any, Any], Any],
        values_kind: str = INTERDEPENDENT,
    ):
        if values_kind not in _VALUES_KINDS:
            raise ValueError(f"unknown values_kind {values_kind!r}")
        if not type_spaces or not alternatives or not reaction_spaces:
            raise ValueError("type spaces, alternatives and reactions must be non-empty")
        if len(type_spaces) != len(reaction_spaces):
            raise ValueError("need one reaction space per agent")
        for space in (*type_spaces, *reaction_spaces):
            if len(space) == 0:
                raise ValueError("empty per-agent space")
        self.type_spaces = tuple(tuple(t) for t in type_spaces)
        self.alternatives = tuple(alternatives)
        self.reaction_spaces = tuple(tuple(r) for r in reaction_spaces)
        self.utility = utility
        self.values_kind = values_kind

    @property
    def n(self) -> int:
        return len(self.type_spaces)

    @property
    def agents(self) -> range:
        return range(self.n)

    def type_vectors(self):
        """Iterate over the full product type space in canonical order."""
        return itertools.product(*self.type_spaces)

    def num_type_vectors(self, D: int | None = None) -> int:
        """The vectors ``walk(D)`` visits: N for the full walk."""
        C, G, _ = self._groups(D)
        return math.comb(C + G - 1, G)

    def num_deviations(self, D: int | None = None) -> int:
        """The ordered unilateral pairs ``walk(D)`` reads, each charged G
        groups: N * sum_i (|T_i| - 1) for the full walk."""
        C, G, D = self._groups(D)
        return C * math.comb(C + G - 2, G - 1) * G * sum(m - 1 for m in self.sizes[:D])

    def group(self, *marked) -> int:
        """The size of the groups a check may treat as interchangeable:
        ``group_size`` when each of ``marked`` is marked ``symmetric_on`` this
        environment or is an anonymous objective, else n (the full walk)."""
        D = self.group_size
        return D if D is not None and all(
            getattr(x, "symmetric_on", None) is self
            or isinstance(x, HistogramObjective) and len(x.member_types) == D
            for x in marked) else self.n

    def _groups(self, D: int | None = None) -> tuple:
        """(C cells per group, G groups, D) for groups of D agents, by default
        one group of all n; no stride is read, so budgets precede ``strides``."""
        D = D or self.n
        # one power per distinct size: a product over a million agents'
        # sizes is quadratic in the result's digits
        C = math.prod(k ** count for k, count in Counter(self.sizes[:D]).items())
        return C, self.n // D, D

    def walk(self, D: int | None = None) -> Iterator[tuple]:
        """(vector, agents), ascending: on groups of D agents (by default one
        group: every vector and agent), each orbit's least vector (group cells
        not decreasing) with the first group of each run of equal cells,
        where the full walk's first worst slack lies."""
        C, G, D = self._groups(D)
        places = self.strides[D - 1::D]
        return ((sum(map(operator.mul, cells, places)),
                 [c * D + j for c, x in enumerate(cells) if not c or x != cells[c - 1]
                  for j in range(D)])
                for cells in itertools.combinations_with_replacement(range(C), G))

    # Vector k is its mixed-radix index in canonical order, ``strides`` the
    # place values: agent i's deviation from type index t_i to b_i moves
    # vector k to k + (b_i - t_i) * strides[i].

    @cached_property
    def sizes(self) -> tuple:
        return tuple(len(ts) for ts in self.type_spaces)

    @cached_property
    def strides(self) -> tuple:
        return tuple(math.prod(self.sizes[i + 1:]) for i in self.agents)

    def vector(self, k: int) -> tuple:
        """Type vector k, decoded from its index; no vector is listed."""
        return tuple([ts[k // s % m]
                      for ts, s, m in zip(self.type_spaces, self.strides, self.sizes)])

    def profiles(self, i: int, D: int | None = None) -> list:
        """Agent i's opponent profiles, ascending: the vectors whose agent-i
        type index is 0 (add t_i * strides[i] for type index t_i) and whose
        groups of D agents other than i's have nondecreasing cells; by
        default every one."""
        C, G, D = self._groups(D)
        g, places = i // D, self.strides[D - 1::D]
        p, rest, m = places[g], places[:g] + places[g + 1:], self.sizes[i]
        s = self.strides[i] // p  # agent i's place within its group's cell
        tails = [sum(map(operator.mul, cells, rest))
                 for cells in itertools.combinations_with_replacement(range(C), G - 1)]
        return sorted([x * p + tail for tail in tails
                       for hi in range(0, C, m * s) for x in range(hi, hi + s)])

    def pairs(self, D: int | None = None) -> Iterator[tuple]:
        """Every unordered unilateral pair as (agent i, vector ka, vector
        kb), agent i's type index lower at ka: by agent of the first group
        of D (by default all), then opponent profile (``profiles(i, D)``),
        then type-index pair in ``itertools.combinations`` order."""
        for i in range(D or self.n):
            stride = self.strides[i]
            steps = [(a * stride, b * stride)
                     for a, b in itertools.combinations(range(self.sizes[i]), 2)]
            for k in self.profiles(i, D):
                for a, b in steps:
                    yield i, k + a, k + b

    def scores(self, F, D: int | None = None) -> dict:
        """The exact F.eval(t, s) at each vector t ``walk(D)`` visits, keyed
        by t's index, as a row in alternative order.  Built on first use, so
        after a check has compared its enumeration with its budget, and kept
        per objective as long as the environment: every check that reads it
        shares one evaluation per (vector, alternative)."""
        D = D or self.n
        memo = self.__dict__.setdefault("_scores", {})
        rows = memo.get((F, D))
        if rows is None:
            # one group walks every vector in canonical order, as the product lists them
            visits = enumerate(self.type_vectors()) if D == self.n else (
                (k, self.vector(k)) for k, _ in self.walk(D))
            rows = memo[F, D] = {k: [F.eval(t, s) for s in self.alternatives] for k, t in visits}
        return rows

    def score(self, F, k: int) -> list:
        """F's row at vector k, read at its orbit's on F's groups (``group(F)``)."""
        D = self.group(F)
        places = self.strides[D - 1::D]
        C = self.sizes[0] * self.strides[0] // places[0]  # cells per group
        cells = sorted(k // p % C for p in places)  # at D = n, k's own
        return self.scores(F, D)[sum(map(operator.mul, cells, places))]

    def _held_scores(self, F, t: tuple) -> list | None:
        """F's ``score`` at type vector t when a check has built it; None
        before that, or when t is not a vector of this environment."""
        held = (F, self.group(F)) in self.__dict__.get("_scores", {})
        try:
            return self.score(F, self.index(t)) if held else None
        except ValueError:
            return None

    def index(self, t: tuple) -> int:
        """Vector t's index; ValueError when t is not a vector of this environment."""
        try:
            return sum(index[t_i] * stride for index, t_i, stride
                       in zip(self.type_index, t, self.strides, strict=True))
        except (KeyError, ValueError):
            raise ValueError(f"{t!r} is not a type vector of the environment") from None

    # The one value-to-index map of each numbering; a value listed twice
    # maps to its last position, whose utilities equal the first's.
    @cached_property
    def type_index(self) -> list:
        """Per agent, each type's index in its type space."""
        return [{t_i: j for j, t_i in enumerate(ts)} for ts in self.type_spaces]

    @cached_property
    def alternative_index(self) -> dict:
        """Each alternative's index in ``alternatives``."""
        return {s: a for a, s in enumerate(self.alternatives)}

    @cached_property
    def reaction_index(self) -> list:
        """Per agent, each reaction's index in its reaction space."""
        return [{r: j for j, r in enumerate(rs)} for rs in self.reaction_spaces]

    @property
    def private_reactions(self) -> bool:
        """Whether each agent's optimal reactions depend on the true vector
        only through its own type: under private reactions or private values."""
        return self.values_kind != INTERDEPENDENT

    def own(self, i: int, k):
        """The key of true vector k for agent i's payoffs: under private
        values the vector of k's agent-i type with every opponent at type
        index 0, otherwise k.  ``k`` may be an int array, keyed elementwise."""
        if self.values_kind == PRIVATE_VALUES:
            return k // self.strides[i] % self.sizes[i] * self.strides[i]
        return k

    def keys(self, i: int) -> range:
        """The true vectors that key agent i's payoffs (``own(i, k) == k``),
        in ascending order: one per own type under private values, every
        vector otherwise.  Count them with ``num_keys``, not ``len``, which
        overflows past ``sys.maxsize``."""
        if self.values_kind == PRIVATE_VALUES:
            return range(0, self.sizes[i] * self.strides[i], self.strides[i])
        return range(self.num_type_vectors())

    def num_keys(self, i: int) -> int:
        """The number of ``keys(i)``."""
        keys = self.keys(i)
        return (keys.stop - keys.start) // keys.step

    def utilities(self, i: int, k: int, a: int) -> tuple:
        """Agent i's (exact, float) utility under each reaction at true vector
        k and alternative a, and the optimum's index (``optimal_reaction``'s
        tie rule); kept by ``own(i, k)`` as long as the environment."""
        key = (i, self.own(i, k), a)
        memo = self.__dict__.setdefault("_utilities", {})
        held = memo.get(key)
        if held is None:
            t, s = self.vector(key[1]), self.alternatives[a]
            utils = [self.utility(i, t, s, r) for r in self.reaction_spaces[i]]
            held = memo[key] = ([(u, float(u)) for u in utils], _argmax(utils))
        return held

    def payoff(self, i: int, k: int, a: int, imposed: int | None = None) -> tuple:
        """Agent i's (exact, float) utility at true vector k and alternative
        a under the reaction index ``imposed`` or, when None, its optimal
        reaction: an entry of ``utilities(i, k, a)``."""
        row, best = self.utilities(i, k, a)
        return row[best if imposed is None else imposed]

    def opponents(self, k: int, i: int) -> tuple:
        """The types of every agent but i in vector k."""
        t = self.vector(k)
        return t[:i] + t[i + 1:]


class ObjectiveFunction:
    """Social objective F: (type vector, alternative) -> [0, 1].

    ``sensitivity_d`` is a declared upper bound: a unilateral type change
    moves F by at most d/n at any fixed alternative.
    """

    def __init__(self, eval: Callable[[tuple, Any], Any], sensitivity_d: float):
        if sensitivity_d <= 0:
            raise ValueError("sensitivity bound must be positive")
        self.eval = eval
        self.sensitivity_d = sensitivity_d


class HistogramObjective:
    """An anonymous objective, exact from the type histogram at any n.

    Agents come in ``units`` consecutive groups (one agent for facility
    location, one cohort for pricing) whose members have the type spaces
    ``member_types``.  A group's cell is the index of its members' types in
    ``itertools.product(*member_types)``.  With ``c`` the cell counts of t,

        F(t, alternatives[k]) = offset + weights[k] * (c @ matrix[:, k]) / denom

    where ``matrix`` is an integer (cells x alternatives) score table.
    ``sensitivity_d`` is F's declared bound, as for ``ObjectiveFunction``.
    """

    def __init__(self, member_types, alternatives, matrix, offset, weights, denom, units,
                 sensitivity_d):
        self.sensitivity_d = sensitivity_d
        self.member_types = tuple(tuple(s) for s in member_types)
        self.alternatives = tuple(alternatives)
        self._columns = [[int(x) for x in column] for column in zip(*matrix)]
        self.offset = offset
        self.weights = tuple(weights)
        self.denom = denom
        self.units = units
        self.cells = tuple(itertools.product(*self.member_types))
        self.index = {s: k for k, s in enumerate(self.alternatives)}
        self._cell = {X: c for c, X in enumerate(self.cells)}
        self._offset_f = float(offset)
        self._weights_f = tuple(float(w) for w in self.weights)

    def eval(self, t: tuple, s):
        """Exact F(t, s): an int or Fraction whenever offset and weights are."""
        D = len(self.member_types)
        hist = Counter(self._cell[t[j:j + D]] for j in range(0, len(t), D))
        k = self.index[s]
        total = sum(self._columns[k][c] * count for c, count in hist.items())
        return self.offset + self.weights[k] * Fraction(total, self.denom)

    def scores(self, counts) -> list[list[float]]:
        """Float F for every row of a (vectors x cells) count matrix and
        every alternative, as (vectors x alternatives) rows: the exact
        integer product of the row with the alternative's column, then
        weight, ``denom`` and offset in float."""
        terms = tuple(zip(self._weights_f, self._columns))
        return [[self._offset_f + w * sum(map(operator.mul, column, c)) / self.denom
                 for w, column in terms] for c in counts]


class HistogramInstance:
    """A symmetric family of ``F.units`` groups (a facility-location agent, a
    pricing cohort) sharing one reaction space.  ``utility(X, j, s, r)`` is
    member j's utility when its group's types are X, so a one-member group
    has private values and a larger one is declared interdependent.
    """

    def __init__(
        self,
        F: HistogramObjective,
        reactions: tuple,
        utility: Callable[[tuple, int, Any, Any], Any],
        gamma_declared: Any,
    ):
        self.F = F
        self.reactions = reactions
        self.utility = utility
        self.gamma_declared = gamma_declared

    @property
    def n(self) -> int:
        return self.F.units * len(self.F.member_types)

    @cached_property
    def env(self) -> Environment:
        """The per-agent environment, built on first read (sweeps never read
        it): agent i is member j of group c, (c, j) = divmod(i, D)."""
        member_types, utility = self.F.member_types, self.utility
        D = len(member_types)

        def agent_utility(i: int, t: tuple, s, r):
            c, j = divmod(i, D)
            return utility(t[c * D:(c + 1) * D], j, s, r)

        env = Environment(
            type_spaces=member_types * self.F.units,
            alternatives=self.F.alternatives,
            reaction_spaces=(self.reactions,) * self.n,
            utility=agent_utility,
            values_kind=PRIVATE_VALUES if D == 1 else INTERDEPENDENT,
        )
        env.group_size = D
        return env


class Gap(NamedTuple):
    """The environment's gap: worst-case best-alternative misreport loss."""

    gamma: Any
    argmin_witness: tuple | None  # (agent, (t_i, b_i), t_minus)


class SeparationCertificate(NamedTuple):
    """A separating subset of alternatives with a per-triple witness map."""

    separating_set: tuple
    witness: dict


class SensitivityReport(NamedTuple):
    tightest_d: float
    declared_d: float
    passed: bool
    witness: tuple | None  # (agent, t, t_hat, s)


def _argmax(utils: list) -> int:
    """The first index whose utility no later one beats (``_gt``)."""
    best = 0
    for j, u in enumerate(utils):
        if _gt(u, utils[best]):
            best = j
    return best


def optimal_reaction(env: Environment, i: int, t: tuple, s):
    """Best reaction of agent i at type vector t and alternative s.

    Ties are broken toward the lowest index in the agent's reaction space,
    so the selection is deterministic.  A one-reaction space is returned
    without evaluating the utility.
    """
    reactions = env.reaction_spaces[i]
    if len(reactions) == 1:
        return reactions[0]
    return reactions[_argmax([env.utility(i, t, s, r) for r in reactions])]


def _near_max(reactions, utils: list) -> tuple:
    """The reactions whose utility is within tolerance of the maximum."""
    best_u = utils[_argmax(utils)]
    return tuple(
        r for r, u in zip(reactions, utils) if not _gt(best_u, u) or _close(u, best_u)
    )


def check_budget(needed: int, budget: int):
    """Raise EnumerationBudgetExceeded when an enumeration of ``needed``
    evaluations exceeds ``budget``."""
    if needed > budget:
        raise EnumerationBudgetExceeded(needed, budget)


def verify_sensitivity(
    F: ObjectiveFunction, env: Environment, budget: int = DEFAULT_BUDGET
) -> SensitivityReport:
    """Tightest sensitivity of F by full enumeration of unilateral swaps.

    Returns n * max |F(t,s) - F(t_hat,s)| over all neighbor pairs and s,
    and whether it is bounded by the declared d (absolute slack 1e-12).
    """
    D = env.group(F)
    check_budget(env.num_deviations(D) // 2 * len(env.alternatives), budget)

    worst = 0.0
    witness = None
    for i, ka, kb in env.pairs(D):
        for s, fa, fb in zip(env.alternatives, env.score(F, ka), env.score(F, kb)):
            delta = abs(fa - fb)
            if delta > worst:
                worst = delta
                witness = (i, env.vector(ka), env.vector(kb), s)
    tightest = env.n * worst
    return SensitivityReport(
        tightest_d=float(tightest),
        declared_d=float(F.sensitivity_d),
        passed=tightest <= F.sensitivity_d + ABS_TOL,
        witness=witness,
    )


def compute_gap(env: Environment, budget: int = DEFAULT_BUDGET) -> Gap:
    """Exact min-max gap of the environment.

    For every (agent, true type, misreport, opponent profile) the inner max
    runs over alternatives of the utility advantage of the truth-consistent
    optimal reaction over the misreport-consistent one, both read from the
    held rows ``env.utilities`` once per opponent profile; the gap is the
    outer minimum, with the argmin witness.  Only the opponent profiles that
    are their own key (``env.keys``) are walked: under private values the
    first alone; on interchangeable groups (``env.group()``), only the
    first group's.
    """
    D = env.group()
    check_budget(env.num_deviations(D) * len(env.alternatives), budget)

    gamma = None
    witness = None
    alternatives = range(len(env.alternatives))
    for i in range(D):
        types_i, stride = env.type_spaces[i], env.strides[i]
        if len(types_i) < 2:
            continue  # no misreport, and no row to read
        for k in env.profiles(i, D):
            if env.own(i, k) != k:
                continue  # its advantages repeat those at its key
            # (row, optimum) per own type, then alternative
            held = [[env.utilities(i, k + t * stride, a) for a in alternatives]
                    for t in range(len(types_i))]
            for t_i, b_i in itertools.permutations(range(len(types_i)), 2):
                adv = None
                for (row, best), (_, other) in zip(held[t_i], held[b_i]):
                    d = row[best][0] - row[other][0]
                    if adv is None or _gt(d, adv):
                        adv = d
                if gamma is None or _gt(gamma, adv):
                    gamma = adv
                    witness = (i, (types_i[t_i], types_i[b_i]), env.opponents(k, i))
    if gamma is None:
        # no agent has two types: max of an empty advantage set
        gamma = 0
    return Gap(gamma=gamma, argmin_witness=witness)


def find_separating_set(
    env: Environment, budget: int = DEFAULT_BUDGET
) -> SeparationCertificate:
    """Greedy cover of all (agent, type pair, opponent profile) triples.

    Walks ``env.pairs()``; an alternative separates a pair when the two
    sides' near-optimal reactions there, read from the held rows
    ``env.utilities``, are disjoint.  When no already-chosen alternative
    separates a pair, the first separating alternative in canonical order
    is added.  Raises :class:`NotNonTrivial` if some triple has none.
    """
    check_budget(env.num_deviations() // 2 * len(env.alternatives), budget)

    def optimal(i: int, k: int, a: int) -> set:
        row = env.utilities(i, k, a)[0]
        return set(_near_max(range(len(row)), [u for u, _ in row]))

    def separates(i: int, ka: int, kb: int, a: int) -> bool:
        return not optimal(i, ka, a) & optimal(i, kb, a)

    chosen: list = []
    witness: dict = {}
    for i, ka, kb in env.pairs():
        types_i, stride, m = env.type_spaces[i], env.strides[i], env.sizes[i]
        triple = (i, (types_i[ka // stride % m], types_i[kb // stride % m]),
                  env.opponents(ka, i))
        found = next((a for a in chosen if separates(i, ka, kb, a)), None)
        if found is None:
            found = next((a for a in range(len(env.alternatives))
                          if separates(i, ka, kb, a)), None)
            if found is None:
                raise NotNonTrivial(triple)
            chosen.append(found)
        witness[triple] = env.alternatives[found]
    return SeparationCertificate(
        separating_set=tuple(env.alternatives[a] for a in chosen), witness=witness
    )


def check_environment(env: Environment, budget: int = DEFAULT_BUDGET) -> None:
    """Verify the declared invariants by enumeration.

    One walk, by agent, own type, alternative, then opponent profile
    (``profiles(i)`` order), evaluates each utility once: it checks the [0, 1]
    range and, when a private kind is declared, that optimal reactions (and
    for private values the utilities) equal those at the first opponent
    profile.  Raises ValueError at the first violation.
    """
    needed = (
        env.num_type_vectors()
        * len(env.alternatives)
        * sum(len(r) for r in env.reaction_spaces)
    )
    check_budget(needed, budget)

    private = env.private_reactions
    for i, stride in enumerate(env.strides):
        reactions, profiles = env.reaction_spaces[i], env.profiles(i)
        for b, t_i in enumerate(env.type_spaces[i]):
            vectors = [env.vector(k + b * stride) for k in profiles]
            for s in env.alternatives:
                ref = None
                for t in vectors:
                    utils = [env.utility(i, t, s, r) for r in reactions]
                    for r, u in zip(reactions, utils):
                        if u < -ABS_TOL or u > 1 + ABS_TOL:
                            raise ValueError(f"utility {u} outside [0,1] at {(i, t, s, r)}")
                    if not private:
                        continue
                    if ref is None:  # the first opponent profile
                        ref, ref_utils = set(_near_max(reactions, utils)), utils
                    elif set(_near_max(reactions, utils)) != ref:
                        raise ValueError(f"declared {env.values_kind} but argmax of agent "
                                         f"{i} at {(t_i, s)} depends on opponents")
                    if env.values_kind == PRIVATE_VALUES:
                        for r, u, base in zip(reactions, utils, ref_utils):
                            if not _close(u, base):
                                raise ValueError(f"declared private values but utility of agent "
                                                 f"{i} at {(t_i, s, r)} depends on opponents")
