"""Per-layer tracing from outside the program.

The tracer replaces each traced public function in every ``extprob``
module namespace that binds it, and each traced method on its class
(the ``NonstdNumber`` operator slots included), with a timing wrapper, so
calls from inside the program are seen as well as the benchmark's own.
``uninstall`` puts the originals back; untraced rounds run the program
untouched.

A non-leaf call records a span: name, start, end and the index of its
parent span; the root of every item is an ``item`` span opened by the
benchmark.  Leaf operations (field arithmetic, event enumeration and
event masses) are called hundreds of thousands of times, so they are
aggregated per label in memory instead.  A label's self time is its
duration minus the time of the traced calls inside it; the leaf wrapper's
own cost, measured by a probe, is taken out of both the leaf and its
caller, so self times estimate the untraced program.  The ``event_mass``
repeat share and the largest ``poly_gcd`` degree come from a separate
untimed pass (``tally``).
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

import refloop

# label -> (module, class name or None, attribute names, leaf)
TARGETS = {
    "field.add": ("field", "NonstdNumber", ("__add__", "__radd__", "__sub__"), True),
    "field.mul": ("field", "NonstdNumber", ("__mul__", "__rmul__"), True),
    "field.div": ("field", "NonstdNumber", ("__truediv__", "__rtruediv__"), True),
    "field.compare": ("field", "NonstdNumber", ("compare",), True),
    "field.poly_gcd": ("field", None, ("poly_gcd",), True),
    "field.st_ratio": ("field", None, ("st_ratio",), True),
    "linalg.solve_combination": ("_linalg", None, ("solve_combination",), False),
    "linalg.nullspace_basis": ("_linalg", None, ("nullspace_basis",), False),
    "spaces.events": ("spaces", "SpaceAlgebra", ("events",), True),
    "spaces.event_mass": ("spaces", "_MeasureBase", ("event_mass",), True),
    "lps.equivalence": ("lps", None, ("equivalence",), False),
    "lps.reduce_lps": ("lps", None, ("reduce_lps",), False),
    "lps.classify_lps": ("lps", None, ("classify_lps",), False),
    "npsbridge.lps_to_nps": ("npsbridge", None, ("lps_to_nps",), False),
    "npsbridge.nps_to_lps": ("npsbridge", None, ("nps_to_lps",), False),
    "npsbridge.nps_to_popper": ("npsbridge", None, ("nps_to_popper",), False),
    "npsbridge.verify_aeqchar": ("npsbridge", None, ("verify_aeqchar",), False),
    "npsbridge.nps_equiv": ("npsbridge", None, ("nps_equiv",), False),
    "popper.validate_popper": ("popper", None, ("validate_popper",), False),
    "popper.slps_to_popper": ("popper", None, ("slps_to_popper",), False),
    "popper.popper_to_slps": ("popper", None, ("popper_to_slps",), False),
    "popper.treelike_to_lps": ("popper", None, ("treelike_to_lps",), False),
    "independence.indep_events": ("independence", None, ("indep_events",), False),
    "fincof.sampled_axiom_check": ("fincof", None, ("sampled_axiom_check",), False),
    "jsonio.load_path": ("jsonio", None, ("load_path",), False),
    "jsonio.dumps": ("jsonio", None, ("dumps",), False),
    "cli.main": ("cli", None, ("main",), False),
    "cli.build_parser": ("cli", None, ("build_parser",), False),
}

ITEM = "item"


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "extprob" or name.startswith("extprob."))
    ]


class Tracer:
    """Wrappers plus the per-round tallies they fill."""

    def __init__(self):
        for mod_name, *_ in TARGETS.values():
            importlib.import_module(f"extprob.{mod_name}")
        self.calls = Counter()
        self.direct = Counter()
        self.self_time = defaultdict(float)
        self.spans = []
        self._stack = []
        self._patches = []
        # Raw seconds of leaf wrapper cost per call: outside the clock
        # readings, and whole (see _leaf_wrapper).
        self.cost = [0.0, 0.0]
        self.cost_per_ref = self._measure_leaf_cost()
        self.mass_calls = 0
        self.mass_repeats = 0
        self.max_gcd_degree = 0

    def reset(self) -> None:
        """Clear the tallies; wrappers keep references to these objects."""
        self.calls.clear()
        self.direct.clear()
        self.self_time.clear()
        self.spans.clear()

    # ------------------------------------------------------------ install

    def install(self) -> None:
        self._install(TARGETS, self._wrap)

    def _install(self, labels, make_wrapper) -> None:
        modules = _package_modules()
        for label in labels:
            mod_name, cls_name, attrs, leaf = TARGETS[label]
            module = sys.modules[f"extprob.{mod_name}"]
            for attr in attrs:
                if cls_name is not None:
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, make_wrapper(label, original, leaf))
                    continue
                original = getattr(module, attr)
                wrapper = make_wrapper(label, original, leaf)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------ wrappers

    def _wrap(self, label, fn, leaf):
        if leaf:
            return self._leaf_wrapper(label, fn, self.cost)
        return self._span_wrapper(label, fn)

    def _leaf_wrapper(self, label, fn, cost):
        """A leaf call's time runs from before its frame is pushed to after
        its tallies are kept, plus ``cost[0]``, the wrapper's cost that no
        clock reading inside it sees; its caller's self time leaves all of
        that out.  The leaf's own self time leaves out ``cost[1]``, the
        wrapper's whole cost per call, so it estimates the untraced time."""
        stack, calls, self_time = self._stack, self.calls, self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            frame = [0.0, -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                calls[label] += 1
                took = clock() - start + cost[0]
                self_time[label] += took - frame[0] - cost[1]
                if stack:
                    stack[-1][0] += took

        return traced

    def _measure_leaf_cost(self) -> tuple:
        """The leaf wrapper's cost per call, (outside its clock readings,
        whole), each as a share of a reference slice run just before it, so
        that each round can scale them to its machine speed (``set_speed``).

        Leaves are mostly methods called with an argument, so the probe is
        one too.  A loop of wrapped calls is timed from outside; less the
        bare loop and the time the wrapper saw, it gives the first figure,
        and less the same loop of unwrapped calls, the second.  Medians of
        a few trials."""
        class Probe:
            def op(self, x):
                return x

        bare = Probe()
        Wrapped = type("Wrapped", (), {"op": self._leaf_wrapper("probe", Probe.op, [0.0, 0.0])})
        probe, clock, reps = Wrapped(), time.perf_counter, range(20000)
        outside_trials, whole_trials = [], []
        for _ in range(7):
            ref = refloop.slice_seconds()
            frame = [0.0, -1]
            self._stack.append(frame)
            start = clock()
            for i in reps:
                probe.op(i)
            wrapped = clock() - start
            self._stack.pop()
            start = clock()
            for i in reps:
                bare.op(i)
            unwrapped = clock() - start
            start = clock()
            for i in reps:
                pass
            loop = clock() - start
            outside_trials.append((wrapped - loop - frame[0]) / len(reps) / ref)
            whole_trials.append((wrapped - unwrapped) / len(reps) / ref)
        self.calls.pop("probe", None)
        self.self_time.pop("probe", None)
        return (max(0.0, statistics.median(outside_trials)),
                max(0.0, statistics.median(whole_trials)))

    def set_speed(self, ref_s: float) -> None:
        """Scale the leaf wrapper cost to a reference slice of ``ref_s`` seconds."""
        self.cost[0] = self.cost_per_ref[0] * ref_s
        self.cost[1] = self.cost_per_ref[1] * ref_s

    def _span_wrapper(self, label, fn):
        def traced(*args, **kwargs):
            span = self.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def open(self, label) -> int:
        """Open a span; returns its index."""
        start = time.perf_counter()
        parent = next((f[1] for f in reversed(self._stack) if f[1] >= 0), -1)
        index = len(self.spans)
        self.spans.append([label, start, None, parent])
        self._stack.append([0.0, index])
        return index

    def close(self, index) -> None:
        span = self.spans[index]
        frame = self._stack.pop()
        label, parent = span[0], span[3]
        self.calls[label] += 1
        if parent >= 0 and self.spans[parent][0] == ITEM:
            self.direct[label] += 1
        span[2] = end = time.perf_counter()
        took = end - span[1]
        self.self_time[label] += took - frame[0]
        if self._stack:
            self._stack[-1][0] += took

    # ------------------------------------------------------------ tally pass

    def tally(self, items) -> None:
        """One untimed pass over the items with only note-taking hooks on
        ``poly_gcd`` and ``event_mass``: the largest gcd degree, and how
        many ``event_mass`` calls ask again for a (measure, event) pair
        already asked.  Kept apart from the timed traced rounds, whose
        self times would otherwise carry the hashing."""
        asked = {}

        def note_gcd(args):
            a, b = args
            self.max_gcd_degree = max(self.max_gcd_degree, a.degree(), b.degree())

        def note_mass(args):
            measure, ev = args
            self.mass_calls += 1
            key = (id(measure), ev)
            if key in asked:
                self.mass_repeats += 1
            else:
                # Holding the measure keeps its id from being reused in the pass.
                asked[key] = measure

        notes = {"field.poly_gcd": note_gcd, "spaces.event_mass": note_mass}

        def noting(label, fn, _leaf):
            note = notes[label]

            def wrapper(*args, **kwargs):
                note(args)
                return fn(*args, **kwargs)

            return wrapper

        self._install(notes, noting)
        try:
            for item in items:
                try:
                    item.run()
                except Exception:  # the known faults; counted in the timed rounds
                    pass
        finally:
            self.uninstall()

    def mass_repeat_share(self) -> float:
        return self.mass_repeats / self.mass_calls if self.mass_calls else 0.0
