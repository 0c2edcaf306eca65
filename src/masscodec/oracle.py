"""Independent brute-force ground truth for the codec and codebook claims.

Everything here works by explicit enumeration with hard budgets: pooled
readouts are compared pairwise over all admissible subsets, codebooks are
grown or maximized by exhaustive search, and decoding is re-done from the
definition.  The point is to have answers that do not share any code path
with the constructions they check.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .bhcode import BhCodebook, DEFAULT_BUDGET, VerificationResult, require_order
from .core import BitString, CompositionMultiset
from .errors import ConfigError, SearchSpaceTooLarge

Strings = Union[BhCodebook, Sequence[BitString]]


def _as_strings(codebook: Strings) -> tuple[BitString, ...]:
    if isinstance(codebook, BhCodebook):
        return codebook.strings
    return tuple(BitString(s) for s in codebook)


def _fragments(s: BitString, side: str) -> Counter:
    """(length, ones) of every prefix of s and, for ``side="full"``, every
    suffix, counted from the bits by the definition."""
    reads = (s.bits,) if side == "prefix" else (s.bits, s.bits[::-1])
    return Counter(
        (i, sum(bits[:i])) for bits in reads for i in range(1, len(bits) + 1)
    )


def _pooled(per_string: dict, subset: Sequence[BitString]) -> Counter:
    out: Counter = Counter()
    for s in subset:
        out.update(per_string[s])
    return out


def verify_hmc(
    codebook: Strings,
    h: int,
    side: str = "full",
    budget: int = DEFAULT_BUDGET,
) -> VerificationResult:
    """Check that pooled multisets identify every subset of size <= h.

    ``side="full"`` pools prefix and suffix fragments (the readout model);
    ``side="prefix"`` restricts to prefix fragments, the stronger notion
    used by the rate upper bounds.
    """
    require_order(h)
    strings = _as_strings(codebook)
    total = sum(math.comb(len(strings), k) for k in range(1, h + 1))
    if total > budget:
        raise SearchSpaceTooLarge(f"{total} subsets exceed the budget {budget}")
    if side not in ("full", "prefix"):
        raise ValueError(f"side must be 'full' or 'prefix', got {side!r}")
    per_string = {s: _fragments(s, side) for s in strings}
    seen: dict = {}
    for k in range(1, h + 1):
        for subset in itertools.combinations(strings, k):
            key = frozenset(_pooled(per_string, subset).items())
            prev = seen.get(key)
            if prev is not None and set(prev) != set(subset):
                return VerificationResult(False, (prev, subset, ()))
            seen.setdefault(key, subset)
    return VerificationResult(True)


def _all_strings(n: int) -> Iterable[BitString]:
    return (BitString.from_int(v, n) for v in range(2**n))


class _SumRegistry:
    """Subset sums of sizes 1..h over a growing string set, with undo."""

    def __init__(self, n: int, h: int):
        self.n = n
        self.h = h
        self.seen: dict[tuple[int, ...], tuple[BitString, ...]] = {}
        # subsets of size <= h-1 (including the empty one) with their sums,
        # used to extend by one candidate string at a time
        self.small: list[tuple[tuple[BitString, ...], tuple[int, ...]]] = [
            ((), (0,) * n)
        ]
        self.checks = 0

    def compatible(self, x: BitString) -> Optional[list]:
        staged = []
        staged_keys = set()
        for subset, s in self.small:
            self.checks += 1
            key = tuple(a + b for a, b in zip(s, x.bits))
            # staged keys can clash with each other too, e.g. {x} vs {0^n, x}
            if key in self.seen or key in staged_keys:
                return None
            staged_keys.add(key)
            staged.append((subset + (x,), key))
        return staged

    def commit(self, staged: list) -> tuple[int, int]:
        mark = (len(self.small), len(staged))
        for subset, key in staged:
            self.seen[key] = subset
            if len(subset) <= self.h - 1:
                self.small.append((subset, key))
        return mark

    def rollback(self, mark: tuple[int, int], staged: list) -> None:
        del self.small[mark[0] :]
        for _, key in staged:
            del self.seen[key]


def exhaustive_bh_search(
    n: int,
    h: int,
    mode: str = "max-greedy",
    seed: Iterable = (),
    candidates: Optional[Iterable] = None,
    budget: int = DEFAULT_BUDGET,
) -> BhCodebook:
    """Grow (greedy) or maximize (exact) a distinct-subset-sums codebook.

    Greedy scans candidates in order (all strings of length n,
    lexicographic, unless given) and keeps every string that preserves the
    property.  Exact mode branches over include/skip decisions with a
    cardinality prune; it is only feasible for small n.  ``ConfigError``
    refuses an n or h below 1 before any search.
    """
    require_order(h)
    if n < 1:
        raise ConfigError(f"a search needs n >= 1, got n={n}")
    if mode not in ("max-greedy", "exact-max"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact-max" and n > 8:
        raise SearchSpaceTooLarge(f"exact search limited to n <= 8, got {n}")
    # drawn one at a time, so the greedy budget stops the search, not 2^n strings
    pool_iter = (BitString(c) for c in candidates) if candidates is not None else _all_strings(n)
    registry = _SumRegistry(n, h)
    accepted: list[BitString] = []
    for s in (BitString(x) for x in seed):
        staged = registry.compatible(s)
        if staged is None:
            raise ValueError(f"seed strings are not themselves admissible at {s}")
        registry.commit(staged)
        accepted.append(s)

    if mode == "max-greedy":
        for cand in pool_iter:
            if cand in accepted:
                continue
            if registry.checks > budget:
                raise SearchSpaceTooLarge(f"greedy search exceeded budget {budget}")
            staged = registry.compatible(cand)
            if staged is not None:
                registry.commit(staged)
                accepted.append(cand)
        return BhCodebook(n=n, h=h, strings=tuple(accepted), source=None)

    # exact-max: depth-first over the candidate list
    remaining = [c for c in pool_iter if c not in accepted]
    best: list[BitString] = list(accepted)

    def extend(idx: int, current: list[BitString]) -> None:
        nonlocal best
        if registry.checks > budget:
            raise SearchSpaceTooLarge(f"exact search exceeded budget {budget}")
        if len(current) + (len(remaining) - idx) <= len(best):
            return
        if idx == len(remaining):
            if len(current) > len(best):
                best = list(current)
            return
        cand = remaining[idx]
        staged = registry.compatible(cand)
        if staged is not None:
            mark = registry.commit(staged)
            current.append(cand)
            extend(idx + 1, current)
            current.pop()
            registry.rollback(mark, staged)
        extend(idx + 1, current)

    extend(0, list(accepted))
    return BhCodebook(n=n, h=h, strings=tuple(best), source=None)


def brute_decode(
    observed: CompositionMultiset,
    codebook: Strings,
    h: int,
    removals: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> tuple[tuple[BitString, ...], ...]:
    """All codebook subsets whose pool explains the observed fragments.

    A subset S is consistent when the observed multiset is contained in
    pool(S) and the difference is exactly the declared number of removals.
    A clean pool therefore decodes to a single subset iff the codebook has
    the unique-reconstruction property at this order.
    """
    strings = _as_strings(codebook)
    if not strings:
        return ()
    n = len(strings[0])
    observed_counts = Counter(
        {(comp.length, comp.ones): mult for comp, mult in observed.entries()}
    )
    want_total = sum(observed_counts.values()) + removals
    if want_total % (2 * n):
        return ()
    size = want_total // (2 * n)
    if size < 1 or size > h or size > len(strings):
        return ()
    if math.comb(len(strings), size) > budget:
        raise SearchSpaceTooLarge(
            f"{math.comb(len(strings), size)} subsets exceed the budget {budget}"
        )
    per_string = {s: _fragments(s, "full") for s in strings}
    hits = []
    for subset in itertools.combinations(sorted(strings), size):
        candidate = _pooled(per_string, subset)
        if all(candidate[key] >= mult for key, mult in observed_counts.items()):
            hits.append(subset)
    return tuple(hits)


@dataclass(frozen=True)
class CycleReport:
    free: bool
    split: int
    weight: Optional[int] = None
    cycle: Optional[tuple[BitString, ...]] = None  # codewords along the cycle


def check_prefix_code_cycles(
    codebook: Strings, split: int, cycle_len: int = 4
) -> CycleReport:
    """Search the weight-stratified prefix/suffix bipartite graph for cycles.

    Codewords are cut at ``split``; vertices are the distinct prefixes of a
    fixed weight and the suffixes adjacent to them, edges are codewords.  A
    simple cycle of the requested even length is returned as a witness
    (for order h the forbidden length is 2h).
    """
    if cycle_len < 4 or cycle_len % 2:
        raise ValueError("cycle length must be an even number >= 4")
    strings = _as_strings(codebook)
    n = len(strings[0])
    if not 1 <= split <= n - 1:
        raise ValueError(f"split {split} outside 1..{n - 1}")
    strata: dict[int, dict] = {}
    for s in strings:
        a, b = s.prefix(split), s.suffix(n - split)
        adj = strata.setdefault(a.weight(), {})
        adj.setdefault(("p", a), set()).add(("s", b))
        adj.setdefault(("s", b), set()).add(("p", a))

    half = cycle_len // 2
    for weight in sorted(strata):
        adj = strata[weight]
        prefixes = sorted(v for v in adj if v[0] == "p")
        for start in prefixes:
            found = _find_cycle(adj, start, cycle_len)
            if found:
                edges = []
                for i in range(cycle_len):
                    u, v = found[i], found[(i + 1) % cycle_len]
                    a = u[1] if u[0] == "p" else v[1]
                    b = v[1] if v[0] == "s" else u[1]
                    edges.append(a + b)
                if len(set(edges)) == cycle_len and len(set(found[::2])) == half:
                    return CycleReport(
                        free=False, split=split, weight=weight, cycle=tuple(edges)
                    )
    return CycleReport(free=True, split=split)


def _find_cycle(adj: dict, start, cycle_len: int) -> Optional[list]:
    """Depth-first search for a simple cycle of exact length through start."""

    path = [start]
    on_path = {start}

    def step() -> Optional[list]:
        last = path[-1]
        for nxt in sorted(adj[last]):
            if len(path) == cycle_len:
                if nxt == start:
                    return list(path)
                continue
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            hit = step()
            if hit:
                return hit
            on_path.discard(nxt)
            path.pop()
        return None

    return step()
