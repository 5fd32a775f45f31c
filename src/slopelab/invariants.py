"""Determinant invariants and witness search for tensor points.

A rank-one subspace of a tensor product is semistable exactly when some
product of determinant contractions, precomposed with a permutation of
tensor slots, does not vanish on it.  At desk scale that map can be
evaluated directly on coordinates, so semistability certificates are
concrete nonzero rationals rather than abstract invariant polynomials.

gitstab certifies its Kempf minimizers with a witness from this module,
so the point class is read from gitstab at call time, not imported by
name: either module may be imported first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import gitstab
from .exactnum import LogValue, log_of, rat_to_str

BUDGET_EXCEEDED = "budget"
DEAD_STATES = 100_000  # memory cap on the dead states one search remembers


@dataclass(frozen=True)
class WitnessInvariant:
    """A nonvanishing composed contraction certifying semistability.

    ``alphas`` lists the component mapping chosen for each of the m*D
    copies of the point; ``sigma`` holds one slot permutation per tensor
    factor; ``value`` is the (nonzero) evaluation on the generator.
    """

    D: int
    alphas: Tuple[Tuple[int, ...], ...]
    sigma: Tuple[Tuple[int, ...], ...]
    value: Fraction

    def __post_init__(self) -> None:
        if self.D < 1:
            raise ValueError("D must be positive")
        if self.value == 0:
            raise ValueError("a witness evaluation must be nonzero")
        if not self.alphas:
            raise ValueError("at least one copy is required")
        n = len(self.alphas[0])
        if len(self.sigma) != n:
            raise ValueError("one slot permutation per tensor factor required")
        for i, perm in enumerate(self.sigma):
            total = sum(alpha[i] for alpha in self.alphas)
            if sorted(perm) != list(range(total)):
                raise ValueError("sigma must permute the slots of each factor")

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "alphas": [list(a) for a in self.alphas],
            "sigma": [list(p) for p in self.sigma],
            "value": rat_to_str(self.value),
        }


def det_tensor(d: int) -> Tuple[gitstab.TensorPoint, LogValue]:
    """The determinant element of (H^dual)^(x)d for an orthonormal basis,
    together with its Hermitian norm.

    The element is the sum of d! pairwise orthogonal unit tensors
    sign(s) e_{s(1)} (x) ... (x) e_{s(d)}, so the norm is sqrt(d!) and
    its logarithm is exactly half of log(d!).
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    coords: Dict[Tuple[int, ...], Fraction] = {}
    for perm in itertools.permutations(range(d)):
        inversions = sum(
            1 for a in range(d) for b in range(a + 1, d) if perm[a] > perm[b]
        )
        coords[perm] = Fraction(-1 if inversions % 2 else 1)
    norm = log_of(Fraction(math.factorial(d)), Fraction(1, 2))
    return gitstab.TensorPoint.from_map((d,) * d, coords), norm


# ---------------------------------------------------------------------------
# witness search


class _OutOfBudget(Exception):
    pass


def _families(
    letters: Sequence[Tuple[int, ...]], count: int, targets: Sequence[int]
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Multisets of count letters whose exponent vectors sum to targets,
    as sorted tuples in the order of itertools.combinations_with_replacement:
    the first letter's multiplicity runs down from its largest feasible
    value.  Only feasible families are built."""
    if not letters:
        if count == 0 and not any(targets):
            yield ()
        return
    first, rest = letters[0], letters[1:]
    top = min([count] + [t // a for a, t in zip(first, targets) if a])
    for k in range(top, -1, -1):
        left = [t - k * a for a, t in zip(first, targets)]
        for tail in _families(rest, count - k, left):
            yield (first,) * k + tail


def _nonzero_partition(
    supports: Sequence[Sequence[Tuple[Tuple[int, ...], Fraction]]],
    factors: Sequence[Sequence[int]],
    targets: Sequence[int],
    ranks: Sequence[int],
    allowance: int,
) -> Tuple[Optional[Tuple[Tuple[Tuple[int, ...], ...], Fraction]], int]:
    """The first slot partition on which the composed map of the copies
    does not vanish, with its value, and the steps spent.

    supports[j] lists the (index, coefficient) pairs of copy j, and
    factors[j] the factor of each entry of its index; the entries of
    factor i fill its targets[i] slots in copy order.  A partition splits
    them into blocks of ranks[i] slots, each contracted against the sign
    tensor.  Reordering within a block or permuting whole blocks changes
    the value at most by sign, so only canonical partitions are scanned:
    they are built in slot order while the copies are contracted, each
    slot joining an open block of its factor or opening a new one.  Each
    block then fills position by position, so an entry makes an
    inversion with each larger entry already in its block, and a
    repeated entry kills the term.  The partial sums are kept per tuple
    of the sets of entries in the blocks (bit masks), on integers scaled
    per copy.  A branch whose sums all vanish is dropped with all its
    completions, and so is a state already found dead; the first branch
    that reaches the last copy is nonzero.  steps counts (state, support
    element) transitions; more than allowance raises _OutOfBudget.
    (None, steps) means no partition gives a nonzero value.
    """
    n = len(ranks)
    members: List[List[int]] = []  # block id -> its slots
    block_factor: List[int] = []
    filled_slots = [0] * n
    spent = 0
    moves = []
    den = 1
    for support in supports:
        # lists, not generators, build the tuples of this search: see
        # gitstab._nonzero_cells
        scale = math.lcm(*[v.denominator for _, v in support])
        den *= scale
        moves.append([(v.numerator * (scale // v.denominator), idx) for idx, v in support])
    nblocks = sum(t // r for t, r in zip(targets, ranks))

    def open_blocks() -> List[int]:
        return [blk for blk, slots in enumerate(members) if len(slots) < ranks[block_factor[blk]]]

    def place(fs: Sequence[int], k: int, chosen: List[int]) -> Iterator[List[int]]:
        # every way to put the remaining slots of this copy into blocks
        if k == len(fs):
            yield chosen
            return
        i = fs[k]
        options = [blk for blk in open_blocks() if block_factor[blk] == i]
        if block_factor.count(i) < targets[i] // ranks[i]:
            options.append(len(members))
        for blk in options:
            if blk == len(members):
                members.append([])
                block_factor.append(i)
            members[blk].append(filled_slots[i])
            filled_slots[i] += 1
            chosen.append(blk)
            yield from place(fs, k + 1, chosen)
            chosen.pop()
            filled_slots[i] -= 1
            members[blk].pop()
            if not members[blk]:
                members.pop()
                block_factor.pop()

    # the search runs on an explicit stack, one frame per copy placed, so
    # its depth is not bound by the interpreter's recursion limit: the
    # placements of copy j, the partial sums before it and the state they
    # lead from (None at the root)
    dead = set()  # states with no nonzero completion
    stack = [(place(factors[0], 0, []), {(0,) * nblocks: 1}, None)]
    while stack:
        j = len(stack) - 1
        placements, layer, state = stack[-1]
        blocks = next(placements, None)
        if blocks is None:
            stack.pop()
            if state is not None and len(dead) < DEAD_STATES:
                dead.add(state)
            continue
        nxt: Dict[Tuple[int, ...], int] = {}
        for masks, weight in layer.items():
            for coeff, idx in moves[j]:
                spent += 1
                if spent > allowance:
                    raise _OutOfBudget
                filled = list(masks)
                term = weight * coeff
                for blk, e in zip(blocks, idx):
                    bit = 1 << e
                    if filled[blk] & bit:
                        break
                    if bin(filled[blk] >> (e + 1)).count("1") & 1:
                        term = -term
                    filled[blk] |= bit
                else:
                    key = tuple(filled)
                    nxt[key] = nxt.get(key, 0) + term
        nxt = {key: w for key, w in nxt.items() if w}
        if not nxt:
            continue
        if j + 1 == len(moves):
            sigma = tuple([
                tuple([slot for blk, slots in enumerate(members) if block_factor[blk] == i for slot in slots])
                for i in range(n)
            ])
            return (sigma, Fraction(sum(nxt.values()), den)), spent
        # the future depends only on the open blocks, up to relabeling
        # those of one factor, and on the partial sums up to a factor
        opens = sorted((block_factor[blk], sorted(m[blk] for m in nxt), blk) for blk in open_blocks())
        g = math.gcd(*nxt.values())
        sums = sorted((tuple([m[blk] for _, _, blk in opens]), w // g) for m, w in nxt.items())
        if sums[0][1] < 0:
            sums = [(m, -w) for m, w in sums]
        state = (j, tuple([f for f, _, _ in opens]), tuple(sums))
        if state not in dead:
            stack.append((place(factors[j + 1], 0, []), nxt, state))
    return None, spent


def invariant_witness_search(
    x: Union[gitstab.TensorPoint, Dict[Tuple[int, ...], gitstab.TensorPoint]],
    b: Sequence[int],
    m: int,
    D_max: int,
    budget: int = 200_000,
    ranks: Optional[Sequence[int]] = None,
) -> Union[WitnessInvariant, None, str]:
    """Search for a nonvanishing composed determinant contraction.

    ``x`` is the point: a single TensorPoint for the plain tensor
    product (one slot per factor), or a mapping exponent vector ->
    component point for a direct sum over an alphabet of exponents.  For
    D = 1..D_max the search enumerates copy families (alpha_j) with slot
    counts D*b_i*r_i per factor, then canonical slot partitions, and
    returns the first nonzero evaluation.  Exhaustion returns None.  The
    budget counts the steps of the contractions (see _nonzero_partition);
    the scan that would exceed it returns BUDGET_EXCEEDED instead, since
    a truncated scan is inconclusive.
    """
    if m < 1 or D_max < 1:
        raise ValueError("m and D_max must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    if isinstance(x, gitstab.TensorPoint):
        components = {(1,) * len(x.shape): x}
    else:
        components = dict(x)
    if not components:
        raise ValueError("at least one component is required")
    n = len(next(iter(components)))
    if len(b) != n:
        raise ValueError("one twist per factor required")
    for alpha, comp in components.items():
        if len(alpha) != n or any(a < 0 for a in alpha):
            raise ValueError("component exponents must be nonnegative")
        if len(comp.shape) != sum(alpha):
            raise ValueError("component shape does not match its exponent")
    if ranks is None:
        found: List[Optional[int]] = [None] * n
        for alpha, comp in components.items():
            pos = 0
            for i in range(n):
                for _ in range(alpha[i]):
                    if found[i] is None:
                        found[i] = comp.shape[pos]
                    pos += 1
        # a factor absent from every component contributes no slots
        ranks = [r if r is not None else 1 for r in found]
    ranks = list(ranks)
    for alpha, comp in components.items():
        want = tuple([r for i, r in enumerate(ranks) for _ in range(alpha[i])])
        if comp.shape != want:
            raise ValueError("component shape does not match its exponent")
    alphabet = sorted(components)

    spent = 0
    for D in range(1, D_max + 1):
        targets = [D * b[i] * ranks[i] for i in range(n)]
        if any(t < 0 or t % ranks[i] for i, t in enumerate(targets)):
            continue
        for family in _families(alphabet, m * D, targets):
            # letters with the fewest support entries first: they branch
            # least, and the blocks they fill constrain the others early
            family = tuple(sorted(family, key=lambda alpha: len(components[alpha].coords)))
            supports = [list(components[alpha].coords) for alpha in family]
            factors = [[i for i in range(n) for _ in range(alpha[i])] for alpha in family]
            try:
                found, steps = _nonzero_partition(
                    supports, factors, targets, ranks, budget - spent
                )
            except _OutOfBudget:
                return BUDGET_EXCEEDED
            spent += steps
            if found is not None:
                sigma, value = found
                return WitnessInvariant(D, tuple(family), sigma, value)
    return None


def semistable_degree_bound(
    mu_list: Sequence[Tuple[LogValue, int]], b: Sequence[int], m: int
) -> LogValue:
    """The degree bound sum_i (b_i/m) (slope_i + log(rank_i)/2) for a
    line subbundle of the twisted tensor product with semistable generic
    fiber."""
    if m < 1:
        raise ValueError("m must be positive")
    if len(mu_list) != len(b):
        raise ValueError("one twist per factor required")
    total = LogValue.zero()
    for (mu, rank), b_i in zip(mu_list, b):
        if rank < 1:
            raise ValueError("ranks must be positive")
        term = mu + log_of(Fraction(rank), Fraction(1, 2))
        total = total + term.scaled(Fraction(b_i, m))
    return total
