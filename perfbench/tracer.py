"""Span tracer that wraps cohtrade's public functions from outside the package.

A module can bind a function by name (``inequalities`` does
``from .coherence import subset_coherence``), so each target is replaced in
every ``cohtrade.*`` namespace that binds the original object, and methods
are replaced on their class.  Each wrapper opens a span (name, start, end,
parent, root, run id) and adds counts at the same boundary.  Self time is a
span's duration minus the time its direct children cover; it is accumulated
for every span as the span closes, while full span records are kept in
memory only while ``record`` is set, and written out at the end.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from cohtrade.stateio import InvalidStateError

_MARK = "__perfbench_span__"

# (span name, owner, attribute).  owner None: a module-level function looked
# up in every cohtrade namespace; otherwise a class in that module.
TARGETS = (
    ("states.sample", None, "sample_haar_pure"),
    ("states.sample", None, "sample_ginibre_mixed"),
    ("states.validate", "DensityOperator", "validate"),
    ("states.partial_trace", None, "partial_trace"),
    ("states.project", None, "density_from_pure"),
    ("states.pure_ctor", "PureState", "__init__"),
    ("coherence.subset", None, "subset_coherence"),
    ("coherence.l1", None, "l1_coherence"),
    ("tangle.tau", None, "three_tangle"),
    ("tangle.oracle", None, "ckw_tangle_oracle"),
    ("inequalities.suite", None, "run_suite"),
    ("inequalities.verifier", None, "verify_theorem1"),
    ("inequalities.verifier", None, "verify_singles_sum"),
    ("inequalities.verifier", None, "verify_additive_conjecture"),
    ("inequalities.verifier", None, "verify_marginal_split"),
    ("inequalities.verifier", None, "verify_corollary1"),
    ("inequalities.verifier", None, "verify_theorem3"),
    ("inequalities.verifier", None, "verify_eq10"),
    ("search.simplex", None, "minimize_slack"),
    ("families.sweep", None, "family_sweep"),
    ("stateio.read", None, "read_state_file"),
    ("cli.aggregate", None, "ensemble_reports"),
    ("cli.csv_write", None, "write_results_csv"),
    ("cli.main", None, "cli_main"),
)


def _cohtrade_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "cohtrade" or n.startswith("cohtrade.")]


def installed_wrappers() -> list[str]:
    """Every ``module.attr`` in cohtrade that still holds a tracing wrapper."""
    found = []
    for module in _cohtrade_modules():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, _MARK):
                        found.append(f"{module.__name__}.{attr}.{cattr}")
    return sorted(set(found))


class Tracer:
    """Installs span wrappers, accumulates self time and counts, exports spans."""

    def __init__(self):
        self.record = True
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _cohtrade_modules()
        for span_name, owner, attr in TARGETS:
            if owner is None:
                original = None
                for module in modules:
                    if attr in vars(module):
                        original = vars(module)[attr]
                        break
                if original is None:
                    raise RuntimeError(f"cohtrade binds no {attr}")
                wrapper = self._wrap(span_name, attr, original)
                for module in modules:
                    if vars(module).get(attr) is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            else:
                cls = next(vars(m)[owner] for m in modules if owner in vars(m))
                original = vars(cls)[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(span_name, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, span_name: str, attr: str, fn):
        clock = time.perf_counter
        stack = self._stack
        extra = self.extra
        counter = _COUNTERS.get(attr)

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0, stack[-1][0] if stack else None, stack[0][0] if stack else span_id]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
            except InvalidStateError:
                extra[f"{span_name}.rejected"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[span_name] += duration - frame[1]
                self.calls[span_name] += 1
                if stack:
                    stack[-1][1] += duration
                if self.record:
                    self.spans.append(
                        (span_id, span_name, start, end, frame[2], frame[3], self.run_id)
                    )
                if counter is not None:
                    counter(extra, args, result)
            return result

        setattr(wrapper, _MARK, span_name)
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results ------------------------------------------------------------
    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def export(self, path: str) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, root, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "root": root,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )


def _count_l1(extra, args, result):
    extra["coherence.bytes_computed"] += args[0].mat.nbytes


def _count_read(extra, args, result):
    extra["stateio.read_bytes"] += os.path.getsize(args[0])


def _count_search(extra, args, result):
    if result is not None:
        extra["search.evals"] += result.evaluations


def _count_sweep(extra, args, result):
    if result is not None:
        extra["families.sweep_points"] += len(result)


# Counters run as the span closes, with result None when the call raised.
_COUNTERS = {
    "l1_coherence": _count_l1,
    "read_state_file": _count_read,
    "minimize_slack": _count_search,
    "family_sweep": _count_sweep,
}
