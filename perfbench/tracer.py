"""Per-layer tracing of chainalg from outside the package.

The tracer wraps public functions of the chainalg modules after they are
imported.  Each wrapped call is a span; a span stack gives every layer its
self time (its duration minus the time covered by the spans it caused).
Spans are folded in memory into per-layer and per-(caller, callee)
aggregates and handed back as one dict when the traced call ends, so the
traced run does no I/O of its own.  No private name of the package is read.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> (module, public function names bound there)
FUNCTION_LAYERS = (
    ("cli.main", "chainalg.cli", ("main",)),
    (
        "checks.suite",
        "chainalg.checks",
        ("suite_jacobi", "suite_identities", "suite_independence", "suite_oracle"),
    ),
    ("bracket.bracket", "chainalg.bracket", ("bracket",)),
    ("bracket.bracket_gen", "chainalg.bracket", ("bracket_gen",)),
    ("basis.to_b4", "chainalg.basis", ("to_b4",)),
    ("basis.to_b0", "chainalg.basis", ("to_b0",)),
    ("chains.act", "chainalg.chains", ("act",)),
    ("chains.equal_on_chains", "chainalg.chains", ("equal_on_chains",)),
    ("verma.insert_letter", "chainalg.verma", ("insert_letter",)),
    ("verma.gram_matrix", "chainalg.verma", ("gram_matrix",)),
    ("verma.inertia", "chainalg.verma", ("inertia",)),
)

# layer name -> Combination attribute; class attributes are shared by every caller
METHOD_LAYERS = (
    ("core.Combination.add", "__add__"),
    ("core.Combination.scaled", "scaled"),
    ("core.Combination.from_items", "from_items"),
)

LAYERS = tuple(name for name, _m, _f in FUNCTION_LAYERS) + tuple(
    name for name, _a in METHOD_LAYERS
)

ROOT = "<root>"

# chains.act.match_ratio is counted on every ACT_SAMPLE_EVERY-th act call:
# testing every (term, chain) pair would cost as much as the action itself
ACT_SAMPLE_EVERY = 32


class Tracer:
    """Wraps the chainalg layers in place; `report()` returns the aggregates."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, total, self
        self.edges: dict = {}  # (caller, callee) -> [calls, total]
        self.stack = [[ROOT, 0.0]]  # frames: [layer name, time covered by children]
        self.act_calls = 0
        self.act_probes = 0
        self.act_matches = 0
        self.letter_keys: set = set()
        self.cache_start = None
        self.cache_info = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "chainalg" or name.startswith("chainalg."))
        ]
        observers = {
            "chains.act": self._observe_act,
            "verma.insert_letter": self._observe_letter,
        }
        for layer, module_name, attrs in FUNCTION_LAYERS:
            module = sys.modules[module_name]
            for attr in attrs:
                original = getattr(module, attr)
                wrapped = self._wrap(layer, original, observers.get(layer))
                _rebind(modules, original, wrapped)
                if layer == "bracket.bracket_gen":
                    self.cache_info = original.cache_info
        combination = sys.modules["chainalg.core"].Combination
        for layer, attr in METHOD_LAYERS:
            raw = combination.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(combination, attr, classmethod(self._wrap(layer, raw.__func__)))
            else:
                setattr(combination, attr, self._wrap(layer, raw))
        if self.cache_info is not None:
            self.cache_start = self.cache_info()

    def _wrap(self, layer, fn, observe=None):
        rec = self.stats[layer]
        edges = self.edges
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                caller[1] += dt
                edge = edges.get((caller[0], layer))
                if edge is None:
                    edges[(caller[0], layer)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
            if observe is not None:
                observe(args, result)
                caller[1] += clock() - t1  # keep the observer out of the caller's self time
            return result

        return traced

    # -- counters measured where the work happens -----------------------

    def _observe_act(self, args, _result) -> None:
        self.act_calls += 1
        if self.act_calls % ACT_SAMPLE_EVERY:
            return
        e, psi = args[0], args[1]
        self.act_probes += len(e) * len(psi)
        self.act_matches += sum(_acts_on(g, c) for c in psi.keys() for g in e.keys())

    def _observe_letter(self, args, _result) -> None:
        x, word, w = args[0], args[1], args[2]
        self.letter_keys.add((x, word, id(w)))

    # -- results ---------------------------------------------------------

    def report(self) -> dict:
        layers = {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in self.stats.items()
        }
        hits = misses = 0
        if self.cache_info is not None:
            end = self.cache_info()
            hits = end.hits - self.cache_start.hits
            misses = end.misses - self.cache_start.misses
        letter_calls = self.stats["verma.insert_letter"][0]
        return {
            "layers": layers,
            "edges": [
                {"caller": caller, "callee": callee, "calls": calls, "total_s": total}
                for (caller, callee), (calls, total) in sorted(self.edges.items())
            ],
            "counters": {
                "bracket_gen.hits": hits,
                "bracket_gen.misses": misses,
                "act.sampled_probes": self.act_probes,
                "act.sampled_matches": self.act_matches,
                "insert_letter.calls": letter_calls,
                "insert_letter.distinct_keys": len(self.letter_keys),
            },
        }


def _rebind(modules, original, wrapped) -> None:
    """Replace `original` by `wrapped` in every module namespace that binds it."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _acts_on(g, c) -> bool:
    """Whether generator g has a nonzero action on chain c: its lower data occurs in c."""
    body, lower = c.body, g.lower
    if g.kind == "f":
        return c.left == g.flavors[1] and body == lower and c.right == g.flavors[3]
    if g.kind == "l":
        return c.left == g.flavors[1] and body[: len(lower)] == lower
    if g.kind == "r":
        return c.right == g.flavors[1] and body[len(body) - len(lower) :] == lower
    if not lower:
        return True  # length counter and inserters act on every chain
    k = len(lower)
    return any(body[i : i + k] == lower for i in range(len(body) - k + 1))
