"""Per-layer spans, recorded by rebinding package functions in this process.

The benchmark changes nothing in the package.  A traced run replaces each
declared function with a timing wrapper, in every ``masscodec`` module that
holds a binding to it: ``ecc`` and ``codec`` import ``invert_mod2_sum`` and
``partial_sum_strings`` by name, so wrapping only the defining module would
miss their calls.  Methods are rebound on their class.

A span's self time is its duration minus the time its wrapped child spans
took.  Spans are aggregated in memory (calls, self time, total time) and
observers add counts at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

# span name -> (module, attribute path); the name drops the package prefix
# and, for LinearCode, the class, as the layer metrics are named
SPANS = {
    "core.pool": ("masscodec.core", "pool"),
    "channel.erase": ("masscodec.channel", "erase"),
    "channel.substitute_mass_reducing": ("masscodec.channel", "substitute_mass_reducing"),
    "channel.partial_sum_strings": ("masscodec.channel", "partial_sum_strings"),
    "channel.raw_side_sums": ("masscodec.channel", "raw_side_sums"),
    "channel.detect_substitution": ("masscodec.channel", "detect_substitution"),
    "codec.encode": ("masscodec.codec", "encode"),
    "codec.separate_pool": ("masscodec.codec", "separate_pool"),
    "codec.sum_from_prefixes": ("masscodec.codec", "sum_from_prefixes"),
    "codec.mixture_mod2_target": ("masscodec.codec", "mixture_mod2_target"),
    "ecc.one_step_codebook": ("masscodec.ecc", "one_step_codebook"),
    "ecc.two_step_codebook": ("masscodec.ecc", "two_step_codebook"),
    "ecc.integral_codebook": ("masscodec.ecc", "integral_codebook"),
    "ecc.one_step_modp_codebook": ("masscodec.ecc", "one_step_modp_codebook"),
    "ecc.one_step_decode": ("masscodec.ecc", "one_step_decode"),
    "ecc.two_step_decode": ("masscodec.ecc", "two_step_decode"),
    "ecc.integral_decode": ("masscodec.ecc", "integral_decode"),
    "ecc.one_step_modp_decode": ("masscodec.ecc", "one_step_modp_decode"),
    "linearcode.decode_erasures": ("masscodec.linearcode", "LinearCode.decode_erasures"),
    "linearcode.decode_errors": ("masscodec.linearcode", "LinearCode.decode_errors"),
    "linearcode.ModpCode.solve_erasures": ("masscodec.linearcode", "ModpCode.solve_erasures"),
    "bhcode.invert_mod2_sum": ("masscodec.bhcode", "invert_mod2_sum"),
}


def _pool_fragments(counts: Counter, args, result) -> None:
    counts["core.pool.fragments"] += result.total


def _erased_after_merge(counts: Counter, args, result) -> None:
    # a position stays erased after the two-sided merge when both sides lost it
    p, s = result
    counts["channel.erased_positions"] += sum(
        a is None and b is None for a, b in zip(p.symbols, s.symbols)
    )


def _erasures_per_solve(counts: Counter, args, result) -> None:
    word = args[1]  # args[0] is the code itself
    counts["linearcode.erasures_per_solve"] += sum(b is None for b in word)


OBSERVERS: dict[str, Callable] = {
    "core.pool": _pool_fragments,
    "channel.partial_sum_strings": _erased_after_merge,
    "linearcode.decode_erasures": _erasures_per_solve,
}


class Tracer:
    """Calls, self time and total time per span, plus observed counts."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._children: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        children = self._children

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = children.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - child
                self.total_s[name] += dt
                if children:
                    children[-1] += dt
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return span

    def install(self) -> None:
        """Rebind every declared function wherever the package holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "masscodec"]
        for name, (module_name, path) in SPANS.items():
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, OBSERVERS.get(name))
            if classes:
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
